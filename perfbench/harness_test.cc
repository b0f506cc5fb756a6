// Self-test of the benchmark's arithmetic (harness.h) on canned inputs.
// Exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "harness_test:%d: FAILED: %s\n", line, what);
    failures++;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b)); }

using namespace perfbench;  // NOLINT(google-build-using-namespace)

void TestNearestRank() {
  std::vector<double> ten;
  for (int i = 1; i <= 10; i++) ten.push_back(i);
  EXPECT(NearestRank(ten, 50) == 5);
  EXPECT(NearestRank(ten, 90) == 9);
  EXPECT(NearestRank(ten, 91) == 10);
  EXPECT(NearestRank(ten, 99) == 10);
  EXPECT(NearestRank(ten, 100) == 10);
  EXPECT(NearestRank(ten, 0.01) == 1);
  EXPECT(NearestRank({}, 50) == 0);
  // 99.99% of 10000 is rank 9999 exactly; binary rounding must not push it
  // to 10000.
  EXPECT(NearestRankIndex(10000, 99.99) == 9999);
  EXPECT(SamplesBeyond(10000, 99.99) == 1);
}

void TestTailSupport() {
  // At least ten samples beyond the rank.
  EXPECT(SamplesBeyond(1000, 99) == 10);
  EXPECT(TailSupported(1000, 99));
  EXPECT(!TailSupported(999, 99));
  EXPECT(TailSupported(100000, 99.99));
  EXPECT(!TailSupported(99999, 99.99));
  EXPECT(TailSupported(20, 50));
  EXPECT(!TailSupported(19, 50));
}

void TestStallAttribution() {
  const MaintCounters b{3, 5};
  EXPECT(!IsStall(b, MaintCounters{3, 5}));
  EXPECT(IsStall(b, MaintCounters{4, 5}));
  EXPECT(IsStall(b, MaintCounters{3, 6}));
  EXPECT(IsStall(b, MaintCounters{4, 7}));
}

void TestSelfTime() {
  // root [0,100] with children A [10,30] and B [20,50] (overlapping) and D
  // [90,120] (clipped to the root at 100); A has a grandchild C [15,25].
  std::vector<Span> spans = {
      {0, -1, 1, 0, 100},  // root
      {1, 0, 1, 10, 30},   // A
      {1, 0, 1, 20, 50},   // B
      {2, 1, 1, 15, 25},   // C, child of A
      {2, 0, 1, 90, 120},  // D
  };
  std::vector<double> self;
  std::vector<uint64_t> calls;
  SelfTimeByName(spans, 3, &self, &calls);
  // root covered by [10,50] + [90,100] = 50 of 100.
  EXPECT(Near(self[0], 50e-9));
  // A: 20 - 10 (C) = 10, B: 30 -> 40.
  EXPECT(Near(self[1], 40e-9));
  // C: 10, D: 30 (its own interval is not clipped) -> 40.
  EXPECT(Near(self[2], 40e-9));
  EXPECT(calls[0] == 1 && calls[1] == 2 && calls[2] == 2);
}

void TestQueueModel() {
  std::vector<Job> jobs(4);
  const double service[4] = {10, 10, 10, 5};
  for (int i = 0; i < 4; i++) jobs[i].service_us = service[i];
  jobs[3].follows = 2;  // a continuation page arriving at job 2's completion
  const Arrivals arrivals = {0, 5, 100};
  std::vector<double> lat = QueueLatencies(jobs, arrivals, 1.0);
  EXPECT(Near(lat[0], 10) && Near(lat[1], 15) && Near(lat[2], 10) &&
         Near(lat[3], 5));
  lat = QueueLatencies(jobs, arrivals, 2.0);  // half the offered rate
  EXPECT(Near(lat[0], 10) && Near(lat[1], 10) && Near(lat[2], 10) &&
         Near(lat[3], 5));
  // Pooling concatenates the sequences' latencies.
  const std::vector<double> pooled =
      PooledLatencies(jobs, {arrivals, {0, 0, 0}}, 1.0);
  EXPECT(pooled.size() == 8 && Near(pooled[5], 20) && Near(pooled[6], 30) &&
         Near(pooled[7], 5));
}

void TestMeetsLimit() {
  std::vector<Job> jobs(1000);
  std::vector<double> lat(1000, 100);
  EXPECT(MeetsLimit(jobs, {lat}, 150));
  // Five slow jobs at the end: the overall p99 passes, the last quarter's
  // does not — a backlog building up at the end of the run.
  for (int i = 995; i < 1000; i++) lat[i] = 1e6;
  EXPECT(!MeetsLimit(jobs, {lat}, 150));
  // The same five spread over the first half pass.
  std::vector<double> early(1000, 100);
  for (int i = 0; i < 5; i++) early[i * 100] = 1e6;
  EXPECT(MeetsLimit(jobs, {early}, 150));
  // Pooled with a clean sequence, the late five fall within the last
  // quarter's 1% again.
  EXPECT(MeetsLimit(jobs, {lat, std::vector<double>(1000, 100)}, 150));
  // A failed request misses every limit.
  jobs[10].failed = true;
  EXPECT(!MeetsLimit(jobs, {std::vector<double>(1000, 1)}, 150));
}

void TestMaxRate() {
  // 100 µs per job, arrivals every 1000 µs at the base rate of 1000/s: the
  // queue keeps up up to 10000/s and backs up without bound beyond it.
  std::vector<Job> jobs(1000);
  Arrivals even;
  for (size_t i = 0; i < jobs.size(); i++) {
    jobs[i].service_us = 100;
    even.push_back(double(i) * 1000);
  }
  const std::vector<double> ladder = RateLadder(1000, 1.02, 0, 200);
  const double want = 1000 * std::pow(1.02, 116);  // largest step <= 10000
  EXPECT(Near(MaxRate(jobs, {even}, 1000, ladder, 150), want));
  // The backlog test binds before the limit does: above 10000/s the queue
  // is overloaded even though 1000 jobs finish within a generous limit.
  EXPECT(Near(MaxRate(jobs, {even}, 1000, ladder, 1e9), want));
  // A burst (all arrivals at once) in a second sequence: job i waits i
  // services, so only a limit above ~99% of the queue passes.
  Arrivals burst(jobs.size(), 0.0);
  EXPECT(MaxRate(jobs, {even, burst}, 1000, ladder, 150) == 0);
  // A limit below the service time is met by no rate.
  EXPECT(MaxRate(jobs, {even}, 1000, ladder, 50) == 0);
  jobs[3].failed = true;
  EXPECT(MaxRate(jobs, {even}, 1000, ladder, 150) == 0);
}

}  // namespace

int main() {
  TestNearestRank();
  TestTailSupport();
  TestStallAttribution();
  TestSelfTime();
  TestQueueModel();
  TestMeetsLimit();
  TestMaxRate();
  if (failures == 0) std::printf("harness_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
