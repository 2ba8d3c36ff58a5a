// Crawl monitoring and tweaking — the ad-hoc relational queries of §3.7,
// transcribed onto the executor.
#ifndef FOCUS_CRAWL_MONITOR_H_
#define FOCUS_CRAWL_MONITOR_H_

#include <string>
#include <vector>

#include "crawl/crawl_db.h"
#include "sql/table.h"
#include "taxonomy/taxonomy.h"
#include "util/status.h"

namespace focus::crawl {

// One row of the stagnation-diagnosis census:
//   with CENSUS(kcid, cnt) as
//     (select kcid, count(oid) from CRAWL group by kcid)
//   select kcid, cnt, name from CENSUS, TAXONOMY ... order by cnt
struct CensusRow {
  taxonomy::Cid kcid;
  int64_t count;
  std::string name;
};

// Census over *visited* pages, ascending by count. Unclassified rows
// (kcid = -1) are skipped.
Result<std::vector<CensusRow>> ClassCensus(const CrawlDb& db,
                                           const taxonomy::Taxonomy& tax);

// The harvest-rate monitoring applet's query:
//   select minute(lastvisited), avg(relevance) from CRAWL
//   where visited group by minute order by minute
struct MinuteHarvest {
  int64_t minute;
  double avg_relevance;
  int64_t pages;
};
Result<std::vector<MinuteHarvest>> HarvestByMinute(const CrawlDb& db);

// "Possibly missed neighbors of great hubs": unvisited never-tried URLs
// cited off-server by hubs whose score exceeds the `percentile` quantile
// of HUBS.score (the paper uses the 90th).
Result<std::vector<CrawlRecord>> MissedHubNeighbors(const CrawlDb& db,
                                                    const sql::Table* hubs,
                                                    double percentile = 0.9);

}  // namespace focus::crawl

#endif  // FOCUS_CRAWL_MONITOR_H_
