#include "crawl/monitor.h"

#include <algorithm>
#include <unordered_set>

#include "sql/exec/aggregate.h"
#include "sql/exec/basic.h"
#include "sql/exec/operator.h"
#include "sql/exec/scan.h"
#include "sql/exec/sort.h"

namespace focus::crawl {

using sql::AggKind;
using sql::AggSpec;
using sql::Collect;
using sql::Filter;
using sql::HashAggregate;
using sql::OperatorPtr;
using sql::ProjExpr;
using sql::Project;
using sql::SeqScan;
using sql::Sort;
using sql::SortKey;
using sql::Tuple;
using sql::TypeId;
using sql::Value;

Result<std::vector<CensusRow>> ClassCensus(const CrawlDb& db,
                                           const taxonomy::Taxonomy& tax) {
  // select kcid, count(*) from CRAWL where visited = 1 and kcid >= 0
  // group by kcid order by cnt
  OperatorPtr visited = std::make_unique<Filter>(
      std::make_unique<SeqScan>(db.crawl_table()), [](const Tuple& t) {
        return t.Get(8).AsInt32() != 0 && t.Get(7).AsInt32() >= 0;
      });
  OperatorPtr agg = std::make_unique<HashAggregate>(
      std::move(visited), std::vector<int>{7},
      std::vector<AggSpec>{AggSpec{AggKind::kCount, -1, "cnt"}});
  Sort ordered(std::move(agg), {{1, false}, {0, false}});
  FOCUS_ASSIGN_OR_RETURN(std::vector<Tuple> rows, Collect(&ordered));
  std::vector<CensusRow> out;
  out.reserve(rows.size());
  for (const Tuple& row : rows) {
    CensusRow census;
    census.kcid = static_cast<taxonomy::Cid>(row.Get(0).AsInt32());
    census.count = row.Get(1).AsInt64();
    census.name = tax.IsValidCid(census.kcid) ? tax.Name(census.kcid)
                                              : "<unknown>";
    out.push_back(std::move(census));
  }
  return out;
}

Result<std::vector<MinuteHarvest>> HarvestByMinute(const CrawlDb& db) {
  OperatorPtr visited = std::make_unique<Filter>(
      std::make_unique<SeqScan>(db.crawl_table()),
      [](const Tuple& t) { return t.Get(8).AsInt32() != 0; });
  OperatorPtr with_minute = std::make_unique<Project>(
      std::move(visited),
      std::vector<ProjExpr>{
          ProjExpr{"minute", TypeId::kInt64,
                   [](const Tuple& t) {
                     return Value::Int64(t.Get(6).AsInt64() / 60000000);
                   }},
          ProjExpr{"relevance", TypeId::kDouble,
                   [](const Tuple& t) { return t.Get(4); }}});
  OperatorPtr agg = std::make_unique<HashAggregate>(
      std::move(with_minute), std::vector<int>{0},
      std::vector<AggSpec>{AggSpec{AggKind::kAvg, 1, "avg_rel"},
                           AggSpec{AggKind::kCount, -1, "pages"}});
  Sort ordered(std::move(agg), {{0, false}});
  FOCUS_ASSIGN_OR_RETURN(std::vector<Tuple> rows, Collect(&ordered));
  std::vector<MinuteHarvest> out;
  out.reserve(rows.size());
  for (const Tuple& row : rows) {
    out.push_back(MinuteHarvest{row.Get(0).AsInt64(), row.Get(1).AsDouble(),
                                row.Get(2).AsInt64()});
  }
  return out;
}

Result<std::vector<CrawlRecord>> MissedHubNeighbors(const CrawlDb& db,
                                                    const sql::Table* hubs,
                                                    double percentile) {
  // psi = the `percentile` quantile of HUBS.score.
  std::vector<double> scores;
  {
    auto it = hubs->Scan();
    storage::Rid rid;
    Tuple row;
    while (it.Next(&rid, &row)) scores.push_back(row.Get(1).AsDouble());
    FOCUS_RETURN_IF_ERROR(it.status());
  }
  if (scores.empty()) return std::vector<CrawlRecord>{};
  std::sort(scores.begin(), scores.end());
  double psi = scores[std::min(scores.size() - 1,
                               static_cast<size_t>(percentile *
                                                   scores.size()))];

  // Top hub oids.
  std::unordered_set<int64_t> top_hubs;
  {
    auto it = hubs->Scan();
    storage::Rid rid;
    Tuple row;
    while (it.Next(&rid, &row)) {
      if (row.Get(1).AsDouble() > psi) top_hubs.insert(row.Get(0).AsInt64());
    }
    FOCUS_RETURN_IF_ERROR(it.status());
  }

  // select url, relevance from CRAWL where oid in (select oid_dst from LINK
  // where oid_src in top_hubs and sid_src <> sid_dst) and numtries = 0
  std::unordered_set<int64_t> candidates;
  {
    auto it = db.link_table()->Scan();
    storage::Rid rid;
    Tuple row;
    while (it.Next(&rid, &row)) {
      if (!top_hubs.contains(row.Get(0).AsInt64())) continue;
      if (row.Get(1).AsInt32() == row.Get(3).AsInt32()) continue;
      candidates.insert(row.Get(2).AsInt64());
    }
    FOCUS_RETURN_IF_ERROR(it.status());
  }
  std::vector<CrawlRecord> out;
  {
    auto it = db.crawl_table()->Scan();
    storage::Rid rid;
    Tuple row;
    while (it.Next(&rid, &row)) {
      if (row.Get(8).AsInt32() != 0) continue;  // unvisited only
      if (row.Get(3).AsInt32() != 0) continue;  // never attempted
      if (!candidates.contains(row.Get(0).AsInt64())) continue;
      out.push_back(CrawlDb::RecordFromTuple(row));
    }
    FOCUS_RETURN_IF_ERROR(it.status());
  }
  std::sort(out.begin(), out.end(),
            [](const CrawlRecord& a, const CrawlRecord& b) {
              if (a.relevance != b.relevance) {
                return a.relevance > b.relevance;
              }
              return a.url < b.url;
            });
  return out;
}

}  // namespace focus::crawl
