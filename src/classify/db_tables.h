// Relational representation of the classifier (Figure 1's TAXONOMY, STAT_c
// and BLOB tables) plus DOCUMENT table helpers.
//
// Layouts:
//   TAXONOMY(pcid:int32, kcid:int32, logprior:double, logdenom:double,
//            type:int32, name:string)           index: by_pcid(pcid)
//   STAT_<c0>(kcid:int32, tid:int64, logtheta:double)
//            heap-ordered by (tid, kcid)        index: by_tid(tid:32)
//   BLOB(pcid:int32, tid:int64, payload:string) index: by_pcid_tid(16+32)
//     payload = repeated {kcid:u16, logtheta:f64} records
//   DOCUMENT(did:int64, tid:int64, freq:int32)  index: by_did(did)
//            (none on a NewDocumentTable, which BulkProbe only scans)
//
// tid is the 32-bit term hash stored in an int64 column (tids exceed
// INT32_MAX); index keys use 32-bit fields, matching the paper's layout.
#ifndef FOCUS_CLASSIFY_DB_TABLES_H_
#define FOCUS_CLASSIFY_DB_TABLES_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "classify/model.h"
#include "sql/catalog.h"
#include "taxonomy/taxonomy.h"
#include "text/document.h"
#include "util/status.h"

namespace focus::classify {

struct ClassifierTables {
  sql::Table* taxonomy = nullptr;
  std::unordered_map<taxonomy::Cid, sql::Table*> stat;  // per internal node
  sql::Table* blob = nullptr;
};

// Materializes the trained model into catalog tables.
Result<ClassifierTables> BuildClassifierTables(sql::Catalog* catalog,
                                               const taxonomy::Taxonomy& tax,
                                               const ClassifierModel& model);

// Encodes/decodes a BLOB payload (the per-(c0,t) record set).
std::string EncodeBlobPayload(const std::vector<ChildStat>& stats);
Result<std::vector<ChildStat>> DecodeBlobPayload(std::string_view payload);

// Creates an empty DOCUMENT table named `name`.
Result<sql::Table*> CreateDocumentTable(sql::Catalog* catalog,
                                        const std::string& name);

// An empty DOCUMENT table on `pool` that no catalog knows of, without the
// by_did index (BulkProbe only scans DOCUMENT): the caller owns it and
// returns its pages with Table::ReleaseStorage. Threads that share a pool
// can each build one at the same time.
Result<std::unique_ptr<sql::Table>> NewDocumentTable(
    storage::BufferPool* pool);

// Appends one document's (did, tid, freq) rows.
Status InsertDocument(sql::Table* document, uint64_t did,
                      const text::TermVector& terms);

// Reads one document back via the by_did index (the "Scan Doc" step of the
// per-document classifiers).
Result<text::TermVector> FetchDocument(const sql::Table* document,
                                       uint64_t did);

}  // namespace focus::classify

#endif  // FOCUS_CLASSIFY_DB_TABLES_H_
