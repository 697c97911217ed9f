// Tests of the benchmark's own measurement rules: the percentile tail
// rule, sub-window p99s, open-loop lateness, and per-seed determinism of
// the Poisson/Zipf input schedules.
#include <gtest/gtest.h>

#include <map>

#include "common.hpp"
#include "schedule.hpp"
#include "stats.hpp"

namespace enginebench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailRule, ReportsATailOnlyWithTenSamplesBeyondIt) {
  EXPECT_FALSE(tail_supported(999, 0.99));
  EXPECT_TRUE(tail_supported(1000, 0.99));
  EXPECT_FALSE(tail_supported(199, 0.95));
  EXPECT_TRUE(tail_supported(200, 0.95));
  EXPECT_TRUE(tail_supported(20, 0.5));

  EXPECT_FALSE(tail(ramp(999), 0.99).has_value());
  const auto p99 = tail(ramp(1000), 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(*p99, 990.0);  // exactly ten samples (991..1000) lie beyond
  EXPECT_EQ(*tail(ramp(200), 0.95), 190.0);
}

TEST(TailRule, QuantilesAreNearestRank) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(quantile(v, 0.5), 3.0);
  EXPECT_EQ(quantile(v, 0.0), 1.0);
  EXPECT_EQ(quantile(v, 1.0), 5.0);
  const Quartiles q = quartiles(ramp(8));
  EXPECT_EQ(q.q1, 2.0);
  EXPECT_EQ(q.median, 4.0);
  EXPECT_EQ(q.q3, 6.0);
  EXPECT_EQ(q.n, 8u);
}

TEST(Latency, TooFewSamplesForAP99IsAnError) {
  Latencies lat;
  for (int i = 0; i < 999; ++i) lat.add(1.0, i * 0.01);
  RunResult r;
  EXPECT_THROW(report_latency(lat, 10.0, 999, 5.0, r), std::runtime_error);
}

TEST(Latency, AStallInOneSubWindowDoesNotSetTheP99) {
  // 4000 samples of 1 ms over 4 s; 200 of them (in the first second)
  // stalled to 100 ms. The whole run's p99 would be the stall; the median
  // of the four sub-window p99s is not.
  Latencies lat;
  for (int i = 0; i < 4000; ++i) {
    lat.add(i < 200 ? 100.0 : 1.0, i * 0.001);
  }
  RunResult r;
  EXPECT_EQ(report_latency(lat, 4.0, 4000, 50.0, r), 1.0);
  EXPECT_EQ(r.e2e["lat_p50_ms"], 1.0);
  EXPECT_DOUBLE_EQ(r.e2e["slo_share"], 3800.0 / 4000.0);
}

TEST(Latency, FailuresCountAsSloMisses) {
  Latencies lat;
  for (int i = 0; i < 1000; ++i) lat.add(1.0, i * 0.001);
  RunResult r;
  report_latency(lat, 1.0, 1250, 5.0, r);  // 250 attempts failed
  EXPECT_DOUBLE_EQ(r.e2e["slo_share"], 0.8);
}

TEST(OpenLoop, AnOverrunningSendMakesLaterSendsLate) {
  const std::vector<double> at = {0.0, 0.1, 0.2, 0.3, 1.0};
  double clock = 0;
  std::vector<double> due_seen;
  const std::vector<double> late = pace_open_loop(
      at, [&] { return clock; }, [&](double t) { clock = t; },
      [&](std::size_t i, double due, double sent) {
        due_seen.push_back(due);
        EXPECT_EQ(sent, clock);
        if (i == 1) clock += 0.5;  // a stall inside the send
      },
      [] { return false; });
  ASSERT_EQ(late.size(), 5u);
  EXPECT_DOUBLE_EQ(late[0], 0.0);
  EXPECT_DOUBLE_EQ(late[1], 0.0);
  EXPECT_DOUBLE_EQ(late[2], 0.4);  // due 0.2, sent at 0.6
  EXPECT_DOUBLE_EQ(late[3], 0.3);
  EXPECT_DOUBLE_EQ(late[4], 0.0);  // the generator caught up
  EXPECT_EQ(due_seen, at);         // latency is timed from these
}

TEST(OpenLoop, StopEndsThePass) {
  const std::vector<double> at = {0.0, 0.1, 0.2};
  double clock = 0;
  int sent = 0;
  pace_open_loop(
      at, [&] { return clock; }, [&](double t) { clock = t; },
      [&](std::size_t, double, double) { ++sent; },
      [&] { return sent == 2; });
  EXPECT_EQ(sent, 2);
}

TEST(Schedule, SameSeedSameInputs) {
  const auto a = make_open_loop_schedule(500, 2.0, 10000, 1.0, 7);
  const auto b = make_open_loop_schedule(500, 2.0, 10000, 1.0, 7);
  EXPECT_EQ(a.at_seconds, b.at_seconds);
  EXPECT_EQ(a.sources, b.sources);
  EXPECT_EQ(a.size(), 1000u);
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a.at_seconds[i - 1], a.at_seconds[i]);
  }
}

TEST(Schedule, OtherSeedOtherInputs) {
  const auto a = make_open_loop_schedule(500, 2.0, 10000, 1.0, 7);
  const auto b = make_open_loop_schedule(500, 2.0, 10000, 1.0, 8);
  EXPECT_NE(a.at_seconds, b.at_seconds);
  EXPECT_NE(a.sources, b.sources);
}

TEST(Schedule, PoissonRateIsTheOfferedRate) {
  const auto s = make_open_loop_schedule(2000, 10.0, 1000, 1.0, 3);
  // Mean gap 1/2000 s: the last of 20000 arrivals lands near 10 s.
  EXPECT_NEAR(s.at_seconds.back(), 10.0, 0.3);
}

TEST(Schedule, ZipfSourcesAreSkewedAndSeeded) {
  const ppr::NodeId n = 10000;
  const ZipfSampler zipf(n, 1.0, 11);
  ppr::Rng rng(5);
  std::map<ppr::NodeId, int> counts;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) counts[zipf(rng)] += 1;
  // Rank 0 holds 1/H(10000) ~ 10% of the mass; uniform would be 0.01%.
  const double top = counts[zipf.item_at_rank(0)] / double(draws);
  EXPECT_NEAR(top, 0.102, 0.01);
  EXPECT_GT(counts[zipf.item_at_rank(0)], counts[zipf.item_at_rank(1)]);
  // The hot set is a seeded permutation, not nodes 0, 1, 2, ...
  const ZipfSampler same(n, 1.0, 11), other(n, 1.0, 12);
  EXPECT_EQ(same.item_at_rank(0), zipf.item_at_rank(0));
  int moved = 0;
  for (std::size_t r = 0; r < 20; ++r) {
    moved += other.item_at_rank(r) != zipf.item_at_rank(r) ? 1 : 0;
  }
  EXPECT_GT(moved, 15);
}

}  // namespace
}  // namespace enginebench
