// The benchmark's own arithmetic, kept free of engine types so that
// harness_test.cc can check it on canned inputs: nearest-rank percentiles,
// stall attribution from counter deltas, span self time, and the open-loop
// queue model behind modeled latency and max_rate_ops_s.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// --- Percentiles -------------------------------------------------------------

/// 1-based nearest rank of percentile `pct` (0 < pct <= 100) in n samples:
/// ceil(pct / 100 * n), at least 1.
size_t NearestRankIndex(size_t n, double pct);

/// Nearest-rank percentile of an ascending-sorted sample (0 when empty).
double NearestRank(const std::vector<double>& sorted, double pct);

/// Samples strictly above the nearest rank: n - rank.
size_t SamplesBeyond(size_t n, double pct);

/// The percentile is supported when at least 10 samples lie beyond it.
inline bool TailSupported(size_t n, double pct) {
  return SamplesBeyond(n, pct) >= 10;
}

// --- Stall attribution ---------------------------------------------------------

/// Maintenance counters read around one write call (IngestStats).
struct MaintCounters {
  uint64_t flushes = 0;
  uint64_t merges = 0;
};

/// A write call stalled on maintenance when a flush or a merge completed
/// while it ran.
inline bool IsStall(const MaintCounters& before, const MaintCounters& after) {
  return after.flushes != before.flushes || after.merges != before.merges;
}

// --- Spans ---------------------------------------------------------------------

/// One span recorded around a call into a layer. `parent` indexes the same
/// span vector (-1 for a root); all spans of one operation share `op`.
struct Span {
  uint32_t name = 0;
  int32_t parent = -1;
  uint64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time per span name, in seconds: each span's duration minus the part
/// of its interval covered by the union of its children's intervals.
/// `names` spans are counted into `calls` (same indexing).
void SelfTimeByName(const std::vector<Span>& spans, size_t names,
                    std::vector<double>* self_s,
                    std::vector<uint64_t>* calls);

/// Chrome trace-event JSON ("X" events, µs) of the spans, one tid per
/// vector; at most `max_events` events are written.
std::string ChromeTraceJson(const std::vector<std::vector<Span>>& per_thread,
                            const std::vector<std::string>& names,
                            size_t max_events);

// --- Open-loop queue model -----------------------------------------------------

/// One job for the single FIFO server: its modeled service time and, for a
/// continuation page, the index of the job whose completion is its arrival.
/// Every other job takes the next stamp of an arrival sequence. A failed job
/// misses every limit.
struct Job {
  double service_us = 0;
  int64_t follows = -1;
  bool failed = false;
};

/// Arrival stamps (µs) for the jobs that do not follow another, in order.
using Arrivals = std::vector<double>;

/// Latencies (completion - arrival) of the jobs served in order by one FIFO
/// server (Lindley recursion), with the arrival stamps multiplied by
/// `scale` (stamping rate / offered rate).
std::vector<double> QueueLatencies(const std::vector<Job>& jobs,
                                   const Arrivals& arrivals, double scale);

/// The latencies of every arrival sequence, concatenated.
std::vector<double> PooledLatencies(const std::vector<Job>& jobs,
                                    const std::vector<Arrivals>& sequences,
                                    double scale);

/// A rate meets the limit when no job failed and the p99 latency is within
/// `limit_us` both over all jobs and over the last quarter of the jobs (a
/// growing backlog shows there first), pooled over the sequences.
bool MeetsLimit(const std::vector<Job>& jobs,
                const std::vector<std::vector<double>>& latencies,
                double limit_us);

/// Offered rates base * step^k for k in [lo_k, hi_k], ascending.
std::vector<double> RateLadder(double base, double step, int lo_k, int hi_k);

/// Highest ladder rate that meets the limit (0 if none), for arrival
/// sequences stamped at `base_rate`. A rate at or above the service capacity
/// (arriving jobs per second of summed service) never qualifies: its backlog
/// grows without bound, however short the run.
double MaxRate(const std::vector<Job>& jobs,
               const std::vector<Arrivals>& sequences, double base_rate,
               const std::vector<double>& ladder, double limit_us);

}  // namespace perfbench
