#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

namespace perfbench {

size_t NearestRankIndex(size_t n, double pct) {
  if (n == 0) return 0;
  // Round away binary noise first: 99.99% of 10000 is rank 9999, not 10000.
  const double exact = pct / 100.0 * double(n);
  size_t rank = size_t(std::ceil(exact - 1e-9 * std::max(1.0, exact)));
  return std::clamp<size_t>(rank, 1, n);
}

double NearestRank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0;
  return sorted[NearestRankIndex(sorted.size(), pct) - 1];
}

size_t SamplesBeyond(size_t n, double pct) {
  return n - NearestRankIndex(n, pct);
}

void SelfTimeByName(const std::vector<Span>& spans, size_t names,
                    std::vector<double>* self_s,
                    std::vector<uint64_t>* calls) {
  self_s->assign(names, 0.0);
  calls->assign(names, 0);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && size_t(s.parent) < spans.size()) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the span.
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    if (s.name < names) {
      (*self_s)[s.name] += double(s.end_ns - s.start_ns - covered) * 1e-9;
      (*calls)[s.name]++;
    }
  }
}

std::string ChromeTraceJson(const std::vector<std::vector<Span>>& per_thread,
                            const std::vector<std::string>& names,
                            size_t max_events) {
  int64_t t0 = std::numeric_limits<int64_t>::max();
  for (const auto& spans : per_thread) {
    for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  }
  std::string out = "{\"traceEvents\":[";
  size_t written = 0;
  char buf[256];
  for (size_t tid = 0; tid < per_thread.size(); tid++) {
    for (const Span& s : per_thread[tid]) {
      if (written == max_events) break;
      const char* name = s.name < names.size() ? names[s.name].c_str() : "?";
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                    "\"parent\":%d}}",
                    written == 0 ? "" : ",\n", name, tid,
                    double(s.start_ns - t0) / 1e3,
                    double(s.end_ns - s.start_ns) / 1e3,
                    static_cast<unsigned long long>(s.op), s.parent);
      out += buf;
      written++;
    }
  }
  out += "]}\n";
  return out;
}

std::vector<double> QueueLatencies(const std::vector<Job>& jobs,
                                   const Arrivals& arrivals, double scale) {
  std::vector<double> completion(jobs.size());
  std::vector<double> latency(jobs.size());
  double free_at = 0;
  size_t next = 0;
  for (size_t i = 0; i < jobs.size(); i++) {
    const Job& j = jobs[i];
    double arrival = 0;
    if (j.follows >= 0) {
      arrival = completion[j.follows];
    } else if (next < arrivals.size()) {
      arrival = arrivals[next++] * scale;
    }
    const double start = std::max(arrival, free_at);
    completion[i] = start + j.service_us;
    free_at = completion[i];
    latency[i] = completion[i] - arrival;
  }
  return latency;
}

std::vector<double> PooledLatencies(const std::vector<Job>& jobs,
                                    const std::vector<Arrivals>& sequences,
                                    double scale) {
  std::vector<double> all;
  for (const Arrivals& a : sequences) {
    const std::vector<double> lat = QueueLatencies(jobs, a, scale);
    all.insert(all.end(), lat.begin(), lat.end());
  }
  return all;
}

namespace {

double P99Of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return NearestRank(v, 99);
}

std::vector<std::vector<double>> LatencySets(
    const std::vector<Job>& jobs, const std::vector<Arrivals>& sequences,
    double scale) {
  std::vector<std::vector<double>> sets;
  for (const Arrivals& a : sequences) {
    sets.push_back(QueueLatencies(jobs, a, scale));
  }
  return sets;
}

}  // namespace

bool MeetsLimit(const std::vector<Job>& jobs,
                const std::vector<std::vector<double>>& latencies,
                double limit_us) {
  if (jobs.empty() || latencies.empty()) return false;
  for (const Job& j : jobs) {
    if (j.failed) return false;
  }
  std::vector<double> all, last;
  for (const std::vector<double>& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
    last.insert(last.end(), lat.end() - lat.size() / 4, lat.end());
  }
  return P99Of(std::move(all)) <= limit_us &&
         (last.empty() || P99Of(std::move(last)) <= limit_us);
}

std::vector<double> RateLadder(double base, double step, int lo_k, int hi_k) {
  std::vector<double> ladder;
  for (int k = lo_k; k <= hi_k; k++) ladder.push_back(base * std::pow(step, k));
  return ladder;
}

double MaxRate(const std::vector<Job>& jobs,
               const std::vector<Arrivals>& sequences, double base_rate,
               const std::vector<double>& ladder, double limit_us) {
  double busy_us = 0;
  double arrivals = 0;  // continuation pages are not offered load
  for (const Job& j : jobs) {
    busy_us += j.service_us;
    arrivals += j.follows < 0 ? 1 : 0;
  }
  for (auto it = ladder.rbegin(); it != ladder.rend(); ++it) {
    if (*it * busy_us >= 1e6 * arrivals) continue;
    if (MeetsLimit(jobs, LatencySets(jobs, sequences, base_rate / *it),
                   limit_us)) {
      return *it;
    }
  }
  return 0;
}

}  // namespace perfbench
