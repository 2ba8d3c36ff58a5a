// Units for the hostile-web fault model: the webgraph's failure taxonomy
// (determinism per attempt, outages, truncation, dead servers), the
// crawler's RetryPolicy and CircuitBreakerRegistry, the frontier's
// not-before gating, and breaker persistence through CrawlDb.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crawl/circuit_breaker.h"
#include "crawl/crawl_db.h"
#include "crawl/frontier.h"
#include "crawl/retry_policy.h"
#include "sql/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "taxonomy/taxonomy.h"
#include "text/tokenizer.h"
#include "util/clock.h"
#include "util/hash.h"
#include "webgraph/simulated_web.h"

namespace focus::crawl {
namespace {

using taxonomy::Cid;
using taxonomy::Taxonomy;
using webgraph::SimulatedWeb;
using webgraph::TopicAffinity;
using webgraph::WebConfig;

Taxonomy MakeTax() {
  Taxonomy tax;
  Cid rec = tax.AddTopic(taxonomy::kRootCid, "recreation").value();
  tax.AddTopic(rec, "cycling").value();
  tax.AddTopic(rec, "gardening").value();
  return tax;
}

WebConfig FaultyConfig(uint64_t seed = 11) {
  WebConfig config;
  config.seed = seed;
  config.pages_per_topic = 120;
  config.background_pages = 800;
  config.background_servers = 40;
  config.fetch_failure_prob = 0.15;
  config.faults.permanent_prob = 0.05;
  config.faults.timeout_prob = 0.05;
  config.faults.truncate_prob = 0.10;
  config.faults.flaky_server_fraction = 0.10;
  config.faults.slow_server_fraction = 0.10;
  return config;
}

SimulatedWeb MakeWeb(const Taxonomy& tax, const WebConfig& config) {
  auto web = SimulatedWeb::Generate(tax, config, {});
  EXPECT_TRUE(web.ok()) << web.status();
  return web.TakeValue();
}

// --- webgraph fault taxonomy ---

TEST(FaultModelTest, FetchOutcomesAreDeterministicPerAttempt) {
  Taxonomy tax = MakeTax();
  SimulatedWeb web_a = MakeWeb(tax, FaultyConfig());
  SimulatedWeb web_b = MakeWeb(tax, FaultyConfig());
  // Same (page, attempt ordinal) sequence -> identical status codes and
  // identical truncation flags, in two independent web instances.
  int failures = 0, truncated = 0;
  for (uint32_t i = 0; i < 200; ++i) {
    const std::string& url = web_a.page(i).url;
    for (int attempt = 0; attempt < 3; ++attempt) {
      VirtualClock clock_a, clock_b;
      auto a = web_a.Fetch(url, &clock_a);
      auto b = web_b.Fetch(web_b.page(i).url, &clock_b);
      ASSERT_EQ(a.ok(), b.ok()) << url << " attempt " << attempt;
      if (!a.ok()) {
        EXPECT_EQ(a.status().code(), b.status().code()) << url;
        ++failures;
      } else {
        EXPECT_EQ(a.value().truncated, b.value().truncated) << url;
        EXPECT_EQ(a.value().tokens.size(), b.value().tokens.size());
        if (a.value().truncated) ++truncated;
      }
    }
  }
  // The fault mix actually exercised every branch.
  EXPECT_GT(failures, 20);
  EXPECT_GT(truncated, 5);
}

TEST(FaultModelTest, TaxonomyProducesEveryFailureClass) {
  Taxonomy tax = MakeTax();
  SimulatedWeb web = MakeWeb(tax, FaultyConfig());
  int transient = 0, permanent = 0, timeout = 0;
  for (uint32_t i = 0; i < web.num_pages(); ++i) {
    VirtualClock clock;
    auto r = web.Fetch(web.page(i).url, &clock);
    if (r.ok()) continue;
    switch (r.status().code()) {
      case StatusCode::kUnavailable:
        ++transient;
        break;
      case StatusCode::kNotFound:
        ++permanent;
        break;
      case StatusCode::kDeadlineExceeded:
        ++timeout;
        // Timeouts charge the configured deadline, not page latency.
        EXPECT_GE(clock.NowMicros(),
                  static_cast<int64_t>(FaultyConfig().faults.timeout_ms *
                                       1000));
        break;
      default:
        ADD_FAILURE() << "unexpected code " << r.status().message();
    }
  }
  EXPECT_GT(transient, 0);
  EXPECT_GT(permanent, 0);
  EXPECT_GT(timeout, 0);
}

TEST(FaultModelTest, ScheduledOutageRefusesWithoutConsumingAttempts) {
  Taxonomy tax = MakeTax();
  WebConfig config = FaultyConfig(13);
  config.fetch_failure_prob = 0;
  config.faults.permanent_prob = 0;
  config.faults.timeout_prob = 0;
  config.faults.truncate_prob = 0;
  config.faults.flaky_server_fraction = 0;
  SimulatedWeb probe = MakeWeb(tax, config);
  int32_t server = probe.page(0).server_id;
  config.faults.outages.push_back(
      webgraph::ServerOutage{server, /*start_s=*/0.0, /*end_s=*/50.0});

  SimulatedWeb web = MakeWeb(tax, config);
  EXPECT_TRUE(web.InOutage(server, 10.0));
  EXPECT_FALSE(web.InOutage(server, 50.0));

  const std::string& url = web.page(0).url;
  VirtualClock clock;
  auto during = web.Fetch(url, &clock);
  ASSERT_FALSE(during.ok());
  EXPECT_EQ(during.status().code(), StatusCode::kResourceExhausted);

  // After the window the fetch behaves as the *first* attempt would in an
  // outage-free web: the refusal consumed no attempt ordinal.
  clock.AdvanceSeconds(60.0);
  auto after = web.Fetch(url, &clock);
  VirtualClock fresh_clock;
  auto fresh = MakeWeb(tax, [&] {
                 WebConfig c = config;
                 c.faults.outages.clear();
                 return c;
               }()).Fetch(url, &fresh_clock);
  ASSERT_EQ(after.ok(), fresh.ok());
  if (after.ok()) {
    EXPECT_EQ(after.value().tokens, fresh.value().tokens);
  } else {
    EXPECT_EQ(after.status().code(), fresh.status().code());
  }
}

TEST(FaultModelTest, DeadServersAlwaysTimeOut) {
  Taxonomy tax = MakeTax();
  WebConfig config = FaultyConfig(17);
  config.faults.dead_server_fraction = 0.25;
  SimulatedWeb web = MakeWeb(tax, config);
  int dead_pages = 0;
  for (uint32_t i = 0; i < 300; ++i) {
    if (!web.ServerIsDead(web.page(i).server_id)) continue;
    ++dead_pages;
    for (int attempt = 0; attempt < 3; ++attempt) {
      VirtualClock clock;
      auto r = web.Fetch(web.page(i).url, &clock);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
    }
  }
  EXPECT_GT(dead_pages, 0);
}

TEST(FaultModelTest, TruncatedPagesTokenizeWithoutCrashing) {
  Taxonomy tax = MakeTax();
  WebConfig config = FaultyConfig(19);
  config.fetch_failure_prob = 0;
  config.faults.permanent_prob = 0;
  config.faults.timeout_prob = 0;
  config.faults.truncate_prob = 1.0;  // every transfer is cut short
  config.faults.flaky_server_fraction = 0;
  SimulatedWeb web = MakeWeb(tax, config);
  text::Tokenizer tokenizer;
  int checked = 0;
  for (uint32_t i = 0; i < 50; ++i) {
    VirtualClock clock;
    auto r = web.Fetch(web.page(i).url, &clock);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_TRUE(r.value().truncated);
    EXPECT_FALSE(r.value().tokens.empty());
    // The malformed tail must survive tokenization like any hostile input.
    for (const std::string& tok : r.value().tokens) {
      auto cleaned = tokenizer.Tokenize(tok);
      for (const auto& c : cleaned) EXPECT_GE(c.size(), 2u);
    }
    ++checked;
  }
  EXPECT_EQ(checked, 50);
}

// --- RetryPolicy ---

TEST(RetryPolicyTest, ClassifiesStatusCodes) {
  EXPECT_EQ(ClassifyFetchFailure(Status::Unavailable("x")),
            FailureClass::kTransient);
  EXPECT_EQ(ClassifyFetchFailure(Status::NotFound("x")),
            FailureClass::kPermanent);
  EXPECT_EQ(ClassifyFetchFailure(Status::DeadlineExceeded("x")),
            FailureClass::kTimeout);
  EXPECT_EQ(ClassifyFetchFailure(Status::ResourceExhausted("x")),
            FailureClass::kServerBusy);
}

FrontierEntry EntryWithTries(int numtries) {
  FrontierEntry e;
  e.oid = 42;
  e.url = "http://srv/a";
  e.numtries = numtries;
  return e;
}

TEST(RetryPolicyTest, TransientRetriesThenExhausts) {
  RetryPolicy policy(RetryPolicyOptions{}, /*retry_budget=*/3);
  auto d0 = policy.Decide(EntryWithTries(0), FailureClass::kTransient, 0);
  EXPECT_FALSE(d0.drop);
  EXPECT_EQ(d0.cost, 1);
  EXPECT_GT(d0.ready_at_us, 0);
  auto d2 = policy.Decide(EntryWithTries(2), FailureClass::kTransient, 0);
  EXPECT_TRUE(d2.drop);
  // The drop charges the remaining budget so numtries lands at >= budget.
  EXPECT_GE(EntryWithTries(2).numtries + d2.cost, 3);
}

TEST(RetryPolicyTest, TimeoutsCountDouble) {
  RetryPolicy policy(RetryPolicyOptions{}, /*retry_budget=*/3);
  auto d = policy.Decide(EntryWithTries(0), FailureClass::kTimeout, 0);
  EXPECT_FALSE(d.drop);
  EXPECT_EQ(d.cost, 2);
  auto d1 = policy.Decide(EntryWithTries(1), FailureClass::kTimeout, 0);
  EXPECT_TRUE(d1.drop);  // 1 + 2 >= 3
}

TEST(RetryPolicyTest, PermanentDropsImmediatelyChargingFullBudget) {
  RetryPolicy policy(RetryPolicyOptions{}, /*retry_budget=*/3);
  auto d = policy.Decide(EntryWithTries(0), FailureClass::kPermanent, 0);
  EXPECT_TRUE(d.drop);
  EXPECT_EQ(d.cost, 3);  // durable dropped marker for ResumeFromDb
}

TEST(RetryPolicyTest, ServerBusyIsFreeAndNeverDrops) {
  RetryPolicy policy(RetryPolicyOptions{}, /*retry_budget=*/3);
  auto d = policy.Decide(EntryWithTries(2), FailureClass::kServerBusy, 100);
  EXPECT_FALSE(d.drop);
  EXPECT_EQ(d.cost, 0);
  EXPECT_GT(d.ready_at_us, 100);
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyWithBoundedJitter) {
  RetryPolicyOptions opts;
  opts.base_backoff_s = 2.0;
  opts.backoff_multiplier = 2.0;
  opts.max_backoff_s = 120.0;
  opts.jitter = 0.25;
  RetryPolicy policy(opts, /*retry_budget=*/10);
  double prev_nominal = 0;
  for (int tries = 1; tries <= 8; ++tries) {
    double nominal = 2.0 * (1 << (tries - 1));
    if (nominal > 120.0) nominal = 120.0;
    double s = policy.BackoffSeconds(/*oid=*/7, tries);
    EXPECT_GE(s, nominal * 0.75) << tries;
    EXPECT_LE(s, nominal * 1.25) << tries;
    EXPECT_GE(nominal, prev_nominal);
    prev_nominal = nominal;
    // Deterministic: same (oid, tries) -> same jitter.
    EXPECT_DOUBLE_EQ(s, policy.BackoffSeconds(7, tries));
  }
  // Different oids jitter differently (with overwhelming probability).
  EXPECT_NE(policy.BackoffSeconds(7, 3), policy.BackoffSeconds(8, 3));
}

// --- CircuitBreakerRegistry ---

TEST(CircuitBreakerTest, OpensAfterThresholdAndProbesHalfOpen) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 3;
  opts.cooldown_s = 10.0;
  opts.cooldown_multiplier = 2.0;
  opts.probe_interval_s = 2.0;
  CircuitBreakerRegistry reg(opts);
  const int32_t sid = 99;

  // Below threshold: stays closed.
  EXPECT_TRUE(reg.Admit(sid, 0).allow);
  reg.OnFailure(sid, 0);
  reg.OnFailure(sid, 1000);
  EXPECT_TRUE(reg.Admit(sid, 2000).allow);
  EXPECT_EQ(reg.open_count(), 0);

  // Third consecutive failure trips it.
  auto tripped = reg.OnFailure(sid, 2000);
  EXPECT_TRUE(tripped.transitioned);
  EXPECT_EQ(tripped.record.state, BreakerState::kOpen);
  EXPECT_EQ(reg.open_count(), 1);

  // Denied during cooldown, with the retry hint at the cooldown end.
  auto denied = reg.Admit(sid, 2000 + 5'000'000);
  EXPECT_FALSE(denied.allow);
  EXPECT_EQ(denied.retry_at_us, 2000 + 10'000'000);

  // After the cooldown: half-open, one probe admitted.
  auto probe = reg.Admit(sid, 2000 + 10'000'000);
  EXPECT_TRUE(probe.allow);
  EXPECT_TRUE(probe.transitioned);
  EXPECT_EQ(probe.record.state, BreakerState::kHalfOpen);
  // A second caller inside the probe interval is denied.
  EXPECT_FALSE(reg.Admit(sid, 2000 + 10'500'000).allow);

  // Probe failure re-opens with an escalated cooldown (20s).
  auto reopened = reg.OnFailure(sid, 2000 + 11'000'000);
  EXPECT_TRUE(reopened.transitioned);
  EXPECT_EQ(reopened.record.state, BreakerState::kOpen);
  EXPECT_EQ(reopened.record.open_until_us, 2000 + 11'000'000 + 20'000'000);

  // Eventually a successful probe closes it and resets the cooldown.
  auto probe2 = reg.Admit(sid, 2000 + 31'000'000);
  EXPECT_TRUE(probe2.allow);
  auto closed = reg.OnSuccess(sid);
  EXPECT_TRUE(closed.transitioned);
  EXPECT_EQ(closed.record.state, BreakerState::kClosed);
  EXPECT_DOUBLE_EQ(closed.record.cooldown_s, opts.cooldown_s);
  EXPECT_EQ(reg.open_count(), 0);
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveFailureCount) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 3;
  CircuitBreakerRegistry reg(opts);
  for (int round = 0; round < 5; ++round) {
    reg.OnFailure(7, 0);
    reg.OnFailure(7, 0);
    reg.OnSuccess(7);  // never three in a row
  }
  EXPECT_EQ(reg.open_count(), 0);
  EXPECT_TRUE(reg.Admit(7, 0).allow);
}

TEST(CircuitBreakerTest, DisabledViaAdmissionSkipStillTracksNothing) {
  // The registry itself is policy-free; "enabled" gating lives in the
  // crawler. A never-admitted registry just reports empty state.
  CircuitBreakerRegistry reg(CircuitBreakerOptions{});
  EXPECT_TRUE(reg.Snapshot().empty());
  EXPECT_EQ(reg.open_count(), 0);
}

// --- frontier not-before gating ---

TEST(FrontierReadyGateTest, ParkedEntriesAreInvisibleUntilReady) {
  Frontier f(PriorityPolicy::kAggressiveDiscovery);
  FrontierEntry now_entry;
  now_entry.oid = 1;
  now_entry.url = "http://a/1";
  now_entry.relevance = 0.2;
  FrontierEntry later;
  later.oid = 2;
  later.url = "http://a/2";
  later.relevance = 0.9;  // outranks, but parked
  later.ready_at_us = 1'000'000;
  f.AddOrUpdate(now_entry);
  f.AddOrUpdate(later);

  EXPECT_EQ(f.NextReadyMicros().value(), 1'000'000);
  auto first = f.PopBest(/*now_us=*/0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->oid, 1u);
  EXPECT_FALSE(f.PopBest(/*now_us=*/999'999).has_value());
  auto second = f.PopBest(/*now_us=*/1'000'000);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->oid, 2u);
  // Promotion cleared the gate on the popped copy.
  EXPECT_EQ(second->ready_at_us, 0);
}

TEST(FrontierReadyGateTest, UngatedPopSeesParkedEntries) {
  // The default (kNoTimeGate) pop drains everything — fault-free crawls
  // and tests keep their historical behaviour.
  Frontier f(PriorityPolicy::kBreadthFirst);
  FrontierEntry e;
  e.oid = 5;
  e.url = "http://a/5";
  e.ready_at_us = 123'456'789;
  f.AddOrUpdate(e);
  auto popped = f.PopBest();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->oid, 5u);
}

TEST(FrontierReadyGateTest, PopHonorsGateAndReportsNextReady) {
  Frontier f(PriorityPolicy::kBreadthFirst);
  for (uint64_t i = 0; i < 8; ++i) {
    FrontierEntry e;
    e.oid = 100 + i;
    e.url = "http://srv" + std::to_string(i) + "/p";
    e.ready_at_us = (i % 2 == 0) ? 0 : 5'000'000;
    f.AddOrUpdate(e);
  }
  int ready_now = 0;
  while (f.PopBest(/*now_us=*/0).has_value()) {
    ++ready_now;
  }
  EXPECT_EQ(ready_now, 4);
  EXPECT_EQ(f.size(), 4u);
  EXPECT_EQ(f.NextReadyMicros().value(), 5'000'000);
  FrontierCensus census = f.Census();
  EXPECT_EQ(census.live, 4u);
  EXPECT_EQ(census.parked, 4u);
  EXPECT_EQ(census.next_ready_us, 5'000'000);
  int ready_later = 0;
  while (f.PopBest(/*now_us=*/5'000'000).has_value()) {
    ++ready_later;
  }
  EXPECT_EQ(ready_later, 4);
  EXPECT_TRUE(f.empty());
}

TEST(FrontierReadyGateTest, ReRankPreservesParkedState) {
  Frontier f(PriorityPolicy::kAggressiveDiscovery);
  FrontierEntry e;
  e.oid = 9;
  e.url = "http://a/9";
  e.relevance = 0.5;
  e.ready_at_us = 2'000'000;
  f.AddOrUpdate(e);
  // A citation raises its relevance while it waits out the backoff.
  FrontierEntry updated = e;
  updated.relevance = 0.9;
  f.AddOrUpdate(updated);
  EXPECT_FALSE(f.PopBest(0).has_value());
  auto popped = f.PopBest(2'000'000);
  ASSERT_TRUE(popped.has_value());
  EXPECT_DOUBLE_EQ(popped->relevance, 0.9);
}

// --- persistence ---

class FaultPersistenceTest : public testing::Test {
 protected:
  FaultPersistenceTest() : pool_(&disk_, 256), catalog_(&pool_) {
    auto db = CrawlDb::Create(&catalog_);
    EXPECT_TRUE(db.ok());
    db_.emplace(db.TakeValue());
  }
  storage::MemDiskManager disk_;
  storage::BufferPool pool_;
  sql::Catalog catalog_;
  std::optional<CrawlDb> db_;
};

TEST_F(FaultPersistenceTest, RecordFailurePersistsRetrySchedule) {
  const std::string url = "http://s1.example/p";
  ASSERT_TRUE(db_->AddUrl(url, 0.5, 0).ok());
  uint64_t oid = UrlOid(url);
  ASSERT_TRUE(db_->RecordFailure(oid, /*cost=*/2, /*next_retry_us=*/777).ok());
  auto rec = db_->LookupByUrl(url);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().numtries, 2);
  EXPECT_EQ(rec.value().next_retry_us, 777);
  // A visit clears the pending retry.
  ASSERT_TRUE(db_->RecordVisit(oid, 0.9, 3, 1000).ok());
  rec = db_->LookupByUrl(url);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().next_retry_us, 0);
}

TEST_F(FaultPersistenceTest, BreakerStateRoundTripsThroughDb) {
  BreakerRecord a;
  a.sid = 17;
  a.state = BreakerState::kOpen;
  a.consecutive_failures = 4;
  a.open_until_us = 123'000'000;
  a.cooldown_s = 40.0;
  BreakerRecord b;
  b.sid = 23;
  b.state = BreakerState::kHalfOpen;
  b.consecutive_failures = 6;
  b.cooldown_s = 80.0;
  ASSERT_TRUE(db_->UpsertBreaker(a).ok());
  ASSERT_TRUE(db_->UpsertBreaker(b).ok());
  // Upsert overwrites in place: no duplicate rows per sid.
  a.consecutive_failures = 5;
  ASSERT_TRUE(db_->UpsertBreaker(a).ok());

  auto loaded = db_->LoadBreakers();
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 2u);

  CircuitBreakerRegistry reg(CircuitBreakerOptions{});
  for (const auto& rec : loaded.value()) reg.Restore(rec);
  EXPECT_EQ(reg.open_count(), 2);
  // The restored open breaker still denies before its deadline.
  EXPECT_FALSE(reg.Admit(17, 100'000'000).allow);
  EXPECT_TRUE(reg.Admit(17, 123'000'000).allow);  // half-open probe

  auto snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  for (const auto& rec : snap) {
    if (rec.sid == 23) {
      EXPECT_EQ(rec.state, BreakerState::kHalfOpen);
      EXPECT_EQ(rec.consecutive_failures, 6);
      EXPECT_DOUBLE_EQ(rec.cooldown_s, 80.0);
    }
  }
}

}  // namespace
}  // namespace focus::crawl
