// perfbench: the repository benchmark. One process runs one workload
// (ingest, ingest_mt, query or service) through the engine's public API,
// times every call from outside, checks the outputs, and prints one JSON
// line: the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See README.md in this directory for the workloads, the
// metrics and which layer metric should move which end-to-end metric.
//
//   perfbench --workload ingest --seed 1 --seconds 10 --trace 0
//
// Every workload runs in rounds: one round replays a fixed, seeded input
// against an identical starting state, and rounds repeat until --seconds of
// timed work have accumulated. Modeled metrics come from the first round
// (a function of the seed alone on the serial workloads); wall metrics pool
// every round. With --trace 1, rounds alternate untraced and traced: spans
// and per-layer counters come from the traced rounds, the tracing overhead
// from comparing the two kinds.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/dataset.h"
#include "env/env.h"
#include "harness.h"
#include "server/server.h"
#include "workload/driver.h"
#include "workload/open_loop.h"
#include "workload/tweet_gen.h"

namespace perfbench {
namespace {

using namespace auxlsm;  // NOLINT(google-build-using-namespace)

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return double(ns) * 1e-9; }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return NearestRank(v, 50);
}

// --- Spans ---------------------------------------------------------------------

enum SpanName : uint32_t {
  kRound,
  kOp,
  kCoreWrite,
  kMaintStall,
  kMaintDrain,
  kQueryGet,
  kQueryOpen,
  kQueryPull,
  kServerEncode,
  kServerPoll,
  kServerReceive,
  kNumSpanNames,
};

const std::vector<std::string> kSpanNames = {
    "round",       "op",          "core.write",    "maint.stall",
    "maint.drain", "query.get",   "query.open",    "query.pull",
    "server.encode", "server.poll", "server.receive"};

/// Spans of one thread. Disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  int32_t Add(uint32_t name, int32_t parent, uint64_t op, int64_t start_ns,
              int64_t end_ns) {
    if (!on_) return -1;
    spans_.push_back(Span{name, parent, op, start_ns, end_ns});
    return int32_t(spans_.size() - 1);
  }
  /// Opens a span whose end is set later with Close().
  int32_t Open(uint32_t name, int32_t parent, uint64_t op) {
    return Add(name, parent, op, NowNs(), 0);
  }
  void Close(int32_t idx) {
    if (idx >= 0) spans_[idx].end_ns = NowNs();
  }
  bool on() const { return on_; }
  std::vector<Span>& spans() { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// --- Results of one run ----------------------------------------------------------

/// End-to-end metrics of one untraced round (the run reports their medians).
struct RoundMetrics {
  double ops_per_s = 0;
  double wall_p50_us = 0;
  double modeled_us_per_op = 0;
  double modeled_p50_ms = 0;
  double modeled_p99_ms = 0;
  double max_rate_ops_s = 0;
  double space_amp = 0;
};

struct Output {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  std::vector<double> setup_s;  ///< one sample per set-up
  std::vector<double> gen_s;    ///< generation part of each set-up

  // Untraced rounds: the end-to-end metrics, one summary per round.
  int untraced_rounds = 0;
  double timed_s = 0;
  uint64_t timed_ops = 0;
  std::vector<RoundMetrics> rounds;
  /// Wall latency per op of every untraced round, pooled for the tail.
  std::vector<double> wall_us;
  /// Wall latency per op class (write / get / range), untraced rounds.
  std::map<std::string, std::vector<double>> class_us;

  // Constants of the workload.
  double tail_pct = 99;   ///< wall tail percentile
  double fixed_rate = 0;  ///< offered rate of modeled_p50/p99 (ops/s)
  double nominal = 0;     ///< centre of the max-rate ladder (ops/s)
  double limit_us = 0;    ///< latency limit on the modeled p99

  // Traced rounds: per-layer counters (summed) and spans.
  int traced_rounds = 0;
  double traced_s = 0;
  uint64_t traced_ops = 0;
  std::map<std::string, double> layer;
  std::vector<std::vector<Span>> spans;

  void Fail(const std::string& msg) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", msg.c_str());
    correct = false;
  }
  void Check(bool ok, const std::string& msg) {
    if (!ok) Fail(msg);
  }
};

/// What one round reports to the round loop.
struct RoundTime {
  double timed_s = 0;
  uint64_t ops = 0;
};

/// Runs rounds until `seconds` of timed work have accumulated (at least one
/// round; with tracing, at least one untraced and one traced, alternating).
void RunRounds(double seconds, bool trace, Output* out,
               const std::function<RoundTime(int round, bool traced)>& fn) {
  double spent = 0;
  for (int r = 0;; r++) {
    const bool traced = trace && (r % 2 == 1);
    const RoundTime t = fn(r, traced);
    spent += t.timed_s;
    if (traced) {
      out->traced_rounds++;
      out->traced_s += t.timed_s;
      out->traced_ops += t.ops;
    } else {
      out->untraced_rounds++;
      out->timed_s += t.timed_s;
      out->timed_ops += t.ops;
    }
    if (!out->correct) break;
    if (spent >= seconds && (!trace || r >= 1)) break;
  }
}

/// Summarizes one untraced round: the wall latency of each op and the
/// modeled service time of each job, queued under the arrival sequences
/// stamped at the fixed rate.
RoundMetrics Summarize(Output* out, std::vector<double> wall_us,
                       double timed_s, uint64_t ops, double modeled_us,
                       const std::vector<Job>& jobs,
                       const std::vector<Arrivals>& arrivals,
                       double space_amp) {
  RoundMetrics m;
  out->wall_us.insert(out->wall_us.end(), wall_us.begin(), wall_us.end());
  std::sort(wall_us.begin(), wall_us.end());
  std::vector<double> modeled_lat = PooledLatencies(jobs, arrivals, 1.0);
  std::sort(modeled_lat.begin(), modeled_lat.end());
  m.ops_per_s = double(ops) / timed_s;
  m.wall_p50_us = NearestRank(wall_us, 50);
  m.modeled_us_per_op = modeled_us / double(ops);
  m.modeled_p50_ms = NearestRank(modeled_lat, 50) * 1e-3;
  m.modeled_p99_ms = NearestRank(modeled_lat, 99) * 1e-3;
  m.max_rate_ops_s =
      MaxRate(jobs, arrivals, out->fixed_rate,
              RateLadder(out->nominal, 1.02, -100, 40), out->limit_us);
  m.space_amp = space_amp;
  return m;
}

double ModeledUs(Env* env, Dataset* ds) {
  return env->stats().simulated_us + ds->wal()->stats().simulated_us;
}

MaintCounters Maint(const Dataset& ds) {
  return MaintCounters{ds.ingest_stats().flushes.load(),
                       ds.ingest_stats().merges.load()};
}

/// Poisson arrival stamps (µs) at `rate`: kArrivalSequences independent
/// seeded sequences of n stamps. Modeled latencies pool over all of them,
/// which steadies their percentiles against one unlucky burst.
constexpr int kArrivalSequences = 8;

std::vector<Arrivals> PoissonArrivals(size_t n, double rate, uint64_t seed) {
  std::vector<Arrivals> seqs;
  for (int k = 0; k < kArrivalSequences; k++) {
    Random rng(seed * 1000003 + 17 + uint64_t(k));
    Arrivals a(n);
    double t = 0;
    for (size_t i = 0; i < n; i++) {
      t += -1e6 / rate * std::log(1.0 - rng.NextDouble());
      a[i] = t;
    }
    seqs.push_back(std::move(a));
  }
  return seqs;
}

uint64_t DiskComponents(Dataset* ds) {
  uint64_t n = ds->primary()->NumDiskComponents();
  if (ds->primary_key_index() != nullptr) {
    n += ds->primary_key_index()->NumDiskComponents();
  }
  for (const auto& s : ds->secondaries()) n += s->tree->NumDiskComponents();
  return n;
}

/// Storage-side counters at the start of a traced round; AddTo() adds the
/// round's deltas to the per-layer sums.
struct StorageMark {
  IoStats io;
  WalStats wal;
  double wal_us;
  BufferCacheStats bc;
  double cpu_s;
  int64_t wall_ns;

  static StorageMark Take(Env* env, Dataset* ds) {
    return StorageMark{env->stats(), ds->wal()->wal_stats(),
                       ds->wal()->stats().simulated_us, env->cache()->stats(),
                       CpuSeconds(), NowNs()};
  }
  void AddTo(Output* out, Env* env, Dataset* ds) const {
    const IoStats dio = env->stats() - io;
    const WalStats dwal = ds->wal()->wal_stats() - wal;
    auto& L = out->layer;
    L["io.pages_written"] += double(dio.pages_written);
    L["io.bytes_written"] += double(dio.pages_written * env->page_size());
    L["io.pages_read"] += double(dio.pages_read);
    L["io.random_reads"] += double(dio.random_reads);
    L["io.seq_reads"] += double(dio.sequential_reads);
    L["io.modeled_s"] += dio.simulated_us * 1e-6;
    L["io.crit_s"] += dio.critical_path_us * 1e-6;
    L["env.cache_hits"] += double(dio.cache_hits);
    L["env.cache_lookups"] += double(dio.cache_hits + dio.cache_misses);
    L["env.cache_evictions"] +=
        double(env->cache()->stats().evictions - bc.evictions);
    L["wal.records"] += double(dwal.records);
    L["wal.commits"] += double(dwal.commits);
    L["wal.syncs"] += double(dwal.syncs);
    L["wal.modeled_s"] += (ds->wal()->stats().simulated_us - wal_us) * 1e-6;
    L["lsm.disk_components"] += double(DiskComponents(ds));
    L["lsm.space_bytes"] +=
        double(env->store()->TotalPages() * env->page_size());
    L["proc.cpu_s"] += CpuSeconds() - cpu_s;
    L["proc.wall_s"] += Seconds(NowNs() - wall_ns);
  }
};

// --- ingest / ingest_mt ----------------------------------------------------------

constexpr uint64_t kIngestOps = 100000;  ///< ops per round
constexpr size_t kIngestSample = 2000;   ///< keys read back by the gate

struct WriteOp {
  bool del = false;
  TweetRecord rec;  ///< the upserted record; only rec.id for a delete
};

struct IngestInput {
  std::vector<WriteOp> ops;
  std::vector<size_t> part[2];  ///< op indices per writer (by primary key)
  uint64_t live = 0;            ///< live records after the stream
  double live_bytes = 0;        ///< serialized bytes of the live records
  double user_bytes = 0;        ///< serialized bytes written by the stream
  /// Seeded sample of keys with the op index of their last write.
  std::vector<std::pair<uint64_t, size_t>> sample;
};

/// ~70% fresh upserts, ~25% upserts of uniformly chosen past keys, ~5%
/// deletes of past keys; plus the reference model of the final state.
IngestInput MakeIngestInput(uint64_t seed) {
  IngestInput in;
  TweetGenOptions go;
  go.seed = seed;
  TweetGenerator gen(go);
  Random rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  in.ops.resize(kIngestOps);
  std::unordered_map<uint64_t, size_t> last;
  last.reserve(kIngestOps);
  for (size_t i = 0; i < kIngestOps; i++) {
    WriteOp& op = in.ops[i];
    const double u = rng.NextDouble();
    if (gen.generated() == 0 || u < 0.70) {
      op.rec = gen.Next();
    } else if (u < 0.95) {
      op.rec = gen.Update(rng.Uniform(gen.generated()));
    } else {
      op.del = true;
      op.rec.id = gen.IdAt(rng.Uniform(gen.generated()));
    }
    last[op.rec.id] = i;
    in.user_bytes += op.del ? 8.0 : double(op.rec.Serialize().size());
    in.part[op.rec.id % 2].push_back(i);
  }
  std::vector<std::pair<uint64_t, size_t>> keys(last.begin(), last.end());
  std::sort(keys.begin(), keys.end());
  for (const auto& [id, idx] : keys) {
    if (!in.ops[idx].del) {
      in.live++;
      in.live_bytes += double(in.ops[idx].rec.Serialize().size());
    }
  }
  for (size_t i = 0; i < kIngestSample && !keys.empty(); i++) {
    in.sample.push_back(keys[rng.Uniform(keys.size())]);
  }
  return in;
}

EnvOptions IngestEnv() {
  EnvOptions eo;
  eo.page_size = 4096;
  eo.cache_pages = 2048;  // 8 MiB
  eo.cache_shards = 1;
  eo.disk_profile = DiskProfile::Hdd();
  eo.io_queues = 1;
  eo.scan_readahead_pages = 64;
  return eo;
}

DatasetOptions IngestOptions(size_t threads) {
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kValidation;
  o.secondary_indexes = {SecondaryIndexDef::UserId(),
                         SecondaryIndexDef::SyntheticAttribute(1)};
  o.enable_primary_key_index = true;
  o.maintain_range_filter = true;
  o.mem_budget_bytes = 2u << 20;
  o.merge_size_ratio = 1.2;
  o.max_mergeable_bytes = 64u << 20;
  o.correlated_merges = false;
  o.merge_repair = false;
  o.enable_wal = true;
  o.log_queues = 1;
  o.writer_threads = threads;
  o.maintenance_threads = threads;
  o.merge_partition_min_bytes = 8u << 20;
  o.merge_queue_depth = 0;
  o.strict_no_steal = false;
  o.tuple_cache_bytes = 0;
  return o;
}

/// Correctness gate: live count and a sample of keys at their latest version.
void CheckIngest(const IngestInput& in, Dataset* ds, Output* out) {
  const uint64_t live = ds->num_records();
  out->Check(live == in.live, "live record count " + std::to_string(live) +
                                  " != reference " + std::to_string(in.live));
  uint64_t bad = 0;
  for (const auto& [id, idx] : in.sample) {
    TweetRecord rec;
    const Status st = ds->GetById(id, &rec);
    if (in.ops[idx].del) {
      bad += st.IsNotFound() ? 0 : 1;
    } else {
      bad += (st.ok() && rec == in.ops[idx].rec) ? 0 : 1;
    }
  }
  out->Check(bad == 0, std::to_string(bad) + " sampled keys did not read back "
                                              "at their latest version");
}

/// Per-thread results of a writer loop.
struct WriterResult {
  std::vector<double> wall_us;
  std::vector<Job> jobs;  ///< per-op modeled service time
  uint64_t failed = 0;
  double backlog_max = 0;
};

void WriterLoop(const IngestInput& in, const std::vector<size_t>* subset,
                Env* env, Dataset* ds, SpanLog* log, int32_t parent,
                bool sample_backlog, WriterResult* res) {
  const size_t n = subset ? subset->size() : in.ops.size();
  res->wall_us.reserve(n);
  res->jobs.reserve(n);
  for (size_t k = 0; k < n; k++) {
    const size_t i = subset ? (*subset)[k] : k;
    const WriteOp& op = in.ops[i];
    const int64_t o0 = log->on() ? NowNs() : 0;
    const MaintCounters b = Maint(*ds);
    const double m0 = ModeledUs(env, ds);
    const int64_t t0 = NowNs();
    const Status st = op.del ? ds->Delete(op.rec.id) : ds->Upsert(op.rec);
    const int64_t t1 = NowNs();
    const double m1 = ModeledUs(env, ds);
    const MaintCounters a = Maint(*ds);
    res->wall_us.push_back(double(t1 - t0) * 1e-3);
    Job job;
    job.service_us = m1 - m0;
    job.failed = !st.ok();
    res->jobs.push_back(job);
    if (!st.ok()) res->failed++;
    if (log->on()) {
      const int32_t op_span = log->Add(kOp, parent, i + 1, o0, 0);
      log->Add(IsStall(b, a) ? kMaintStall : kCoreWrite, op_span, i + 1, t0,
               t1);
      if (sample_backlog && k % 1024 == 0) {
        const obs::MetricsSnapshot snap = ds->MetricsSnapshot();
        double backlog = 0;
        for (const auto& [name, v] : snap.values) {
          if (name == "exec.merge_rounds_pending" ||
              name.find(".sealed_memtables") != std::string::npos) {
            backlog += v;
          }
        }
        res->backlog_max = std::max(res->backlog_max, backlog);
      }
      log->spans()[op_span].end_ns = NowNs();
    }
  }
}

void RunIngest(uint64_t seed, double seconds, bool trace, size_t writers,
               Output* out) {
  // The serial tail sits inside the inline flush/merge stalls; with two
  // writers and background maintenance, p99.9 and above swing with host
  // scheduling from run to run, so ingest_mt reports p99.
  out->tail_pct = writers == 1 ? 99.99 : 99;
  out->fixed_rate = writers == 1 ? 6500 : 1750;
  out->nominal = writers == 1 ? 9500 : 7400;
  out->limit_us = 1e7;
  IngestInput in;
  std::vector<Arrivals> arrivals;
  for (int s = 0; s < 5; s++) {
    const int64_t t0 = NowNs();
    in = MakeIngestInput(seed);
    arrivals = PoissonArrivals(kIngestOps, out->fixed_rate, seed);
    const double dt = Seconds(NowNs() - t0);
    out->setup_s.push_back(dt);
    out->gen_s.push_back(dt);
  }
  double first_round_modeled = -1;

  RunRounds(seconds, trace, out, [&](int round, bool traced) {
    Env env(IngestEnv());
    Dataset ds(&env, IngestOptions(writers));
    SpanLog main_log(traced);
    const StorageMark mark = StorageMark::Take(&env, &ds);
    const int32_t round_span = main_log.Open(kRound, -1, 0);
    std::vector<WriterResult> res(writers);
    double drain_s = 0;
    // Writer threads log separately; their op spans are roots.
    std::vector<SpanLog> logs(writers, SpanLog(traced));
    const int64_t start = NowNs();
    if (writers == 1) {
      WriterLoop(in, nullptr, &env, &ds, &main_log, round_span, false,
                 &res[0]);
    } else {
      std::atomic<bool> go{false};
      std::vector<std::thread> threads;
      for (size_t w = 0; w < writers; w++) {
        threads.emplace_back([&, w] {
          while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
          WriterLoop(in, &in.part[w], &env, &ds, &logs[w], -1, w == 0,
                     &res[w]);
        });
      }
      go.store(true, std::memory_order_release);
      for (auto& t : threads) t.join();
      const int64_t d0 = NowNs();
      const Status st = ds.WaitForMaintenance();
      const int64_t d1 = NowNs();
      main_log.Add(kMaintDrain, round_span, 0, d0, d1);
      drain_s = Seconds(d1 - d0);
      out->Check(st.ok(), "WaitForMaintenance: " + st.ToString());
    }
    const int64_t end = NowNs();
    main_log.Close(round_span);

    RoundTime rt{Seconds(end - start), kIngestOps};
    const double modeled = ModeledUs(&env, &ds);
    for (const WriterResult& r : res) {
      out->attempted += r.wall_us.size();
      out->failed += r.failed;
    }
    if (round == 0) {
      first_round_modeled = modeled;
      CheckIngest(in, &ds, out);
    } else if (writers == 1) {
      out->Check(modeled == first_round_modeled,
                 "serial ingest round modeled cost differs from round 0");
    }
    if (!traced) {
      // Jobs in op-stream order (writers interleave by primary key).
      std::vector<Job> jobs(kIngestOps);
      std::vector<double> wall;
      wall.reserve(kIngestOps);
      for (size_t w = 0; w < writers; w++) {
        for (size_t k = 0; k < res[w].jobs.size(); k++) {
          jobs[writers == 1 ? k : in.part[w][k]] = res[w].jobs[k];
        }
        wall.insert(wall.end(), res[w].wall_us.begin(), res[w].wall_us.end());
      }
      auto& cls = out->class_us["write"];
      cls.insert(cls.end(), wall.begin(), wall.end());
      const double space =
          double(env.store()->TotalPages() * env.page_size()) / in.live_bytes;
      out->rounds.push_back(Summarize(out, std::move(wall), rt.timed_s,
                                      kIngestOps, modeled, jobs, arrivals,
                                      space));
      return rt;
    }
    auto& L = out->layer;
    mark.AddTo(out, &env, &ds);
    const IngestStats& is = ds.ingest_stats();
    L["maint.flushes"] += double(is.flushes.load());
    L["maint.merges"] += double(is.merges.load());
    L["core.point_lookups"] += double(is.ingest_point_lookups.load());
    L["maint.drain_s"] += drain_s;
    L["lsm.user_bytes"] += in.user_bytes;
    for (const WriterResult& r : res) {
      L["exec.backlog_max"] = std::max(L["exec.backlog_max"], r.backlog_max);
    }
    out->spans.push_back(std::move(main_log.spans()));
    if (writers > 1) {
      for (SpanLog& l : logs) out->spans.push_back(std::move(l.spans()));
    }
    return rt;
  });
}

// --- query ---------------------------------------------------------------------------

constexpr uint64_t kQueryRecords = 60000;  ///< fixture size (~34 MB live)
constexpr uint64_t kQueryUpdated = 18000;  ///< records with an obsolete version
constexpr uint64_t kQueryOps = 4400;        ///< ops per round: 4000 gets, 400 ranges
constexpr uint64_t kUserDomain = 100000;
const uint64_t kRangeWidths[3] = {10, 100, 1000};  // 0.01% / 0.1% / 1%

struct QueryOp {
  bool range = false;
  uint64_t id = 0;           ///< get
  uint64_t lo = 0, hi = 0;   ///< range (inclusive user ids)
};

struct QueryFixture {
  std::unique_ptr<Env> env;
  std::unique_ptr<Dataset> ds;
  std::vector<TweetRecord> latest;  ///< reference: latest version per key
  std::vector<QueryOp> script;
};

QueryFixture MakeQueryFixture(uint64_t seed, Output* out) {
  QueryFixture f;
  const int64_t t0 = NowNs();
  TweetGenOptions go;
  go.seed = seed;
  TweetGenerator gen(go);
  std::vector<TweetRecord> load;
  load.reserve(kQueryRecords + kQueryUpdated);
  for (uint64_t i = 0; i < kQueryRecords; i++) load.push_back(gen.Next());
  f.latest = load;
  // Distinct keys get one newer version each (partial Fisher-Yates).
  Random rng(seed * 0x9E3779B97F4A7C15ULL + 2);
  std::vector<uint64_t> perm(kQueryRecords);
  for (uint64_t i = 0; i < kQueryRecords; i++) perm[i] = i;
  for (uint64_t i = 0; i < kQueryUpdated; i++) {
    std::swap(perm[i], perm[i + rng.Uniform(kQueryRecords - i)]);
    load.push_back(gen.Update(perm[i]));
    f.latest[perm[i]] = load.back();
  }
  // Every 11th op is a range, cycling through the three selectivities, so
  // every seed runs the same mix.
  for (uint64_t i = 0; i < kQueryOps; i++) {
    QueryOp op;
    if (i % 11 == 10) {
      op.range = true;
      const uint64_t w = kRangeWidths[(i / 11) % 3];
      op.lo = rng.Uniform(kUserDomain - w + 1);
      op.hi = op.lo + w - 1;
    } else {
      op.id = f.latest[rng.Uniform(kQueryRecords)].id;
    }
    f.script.push_back(op);
  }
  const int64_t t1 = NowNs();

  EnvOptions eo;
  eo.page_size = 4096;
  eo.cache_pages = 512;  // 2 MiB: the data is >10x the cache
  eo.cache_shards = 1;
  eo.disk_profile = DiskProfile::Hdd();
  eo.io_queues = 1;
  eo.scan_readahead_pages = 64;
  f.env = std::make_unique<Env>(eo);
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kValidation;
  o.secondary_indexes = {SecondaryIndexDef::UserId()};
  o.enable_primary_key_index = true;
  o.mem_budget_bytes = 4u << 20;
  o.merge_size_ratio = 1.2;
  o.max_mergeable_bytes = 64u << 20;
  o.merge_repair = false;
  o.writer_threads = 1;
  o.maintenance_threads = 1;
  o.tuple_cache_bytes = 0;
  f.ds = std::make_unique<Dataset>(f.env.get(), o);
  for (const TweetRecord& r : load) {
    const Status st = f.ds->Upsert(r);
    out->Check(st.ok(), "query fixture upsert: " + st.ToString());
    if (!st.ok()) break;
  }
  const Status st = f.ds->FlushAll();
  out->Check(st.ok(), "query fixture flush: " + st.ToString());
  out->setup_s.push_back(Seconds(NowNs() - t0));
  out->gen_s.push_back(Seconds(t1 - t0));
  return f;
}

ReadQuery UserRange(uint64_t lo, uint64_t hi) {
  return Query().Secondary("user_id").Range(lo, hi);
}

/// Correctness gate: sampled ranges match the reference model and the full
/// scan baseline; sampled gets return the latest version.
void CheckQuery(const QueryFixture& f, uint64_t seed, Output* out) {
  Random rng(seed + 99);
  for (int i = 0; i < 6; i++) {
    const uint64_t w = kRangeWidths[i % 3];
    const uint64_t lo = rng.Uniform(kUserDomain - w + 1), hi = lo + w - 1;
    auto cursor = f.ds->NewCursor(UserRange(lo, hi));
    QueryResult res;
    Status st = cursor.ok() ? (*cursor)->Drain(&res) : cursor.status();
    std::vector<uint64_t> got, want;
    for (const TweetRecord& r : res.records) got.push_back(r.id);
    for (const TweetRecord& r : f.latest) {
      if (r.user_id >= lo && r.user_id <= hi) want.push_back(r.id);
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ScanResult scan;
    const Status sst = f.ds->FullScanUserRange(lo, hi, &scan);
    out->Check(st.ok() && sst.ok() && got == want &&
                   scan.records_matched == want.size(),
               "range [" + std::to_string(lo) + ", " + std::to_string(hi) +
                   "] returned " + std::to_string(got.size()) +
                   " rows; reference " + std::to_string(want.size()) +
                   ", full scan " + std::to_string(scan.records_matched));
  }
  uint64_t bad = 0;
  for (int i = 0; i < 500; i++) {
    const TweetRecord& want = f.latest[rng.Uniform(f.latest.size())];
    TweetRecord got;
    const Status st = f.ds->GetById(want.id, &got);
    bad += (st.ok() && got == want) ? 0 : 1;
  }
  out->Check(bad == 0, std::to_string(bad) + " sampled gets were wrong");
}

void RunQuery(uint64_t seed, double seconds, bool trace, Output* out) {
  QueryFixture f;
  for (int s = 0; s < 3; s++) f = MakeQueryFixture(seed, out);
  if (!out->correct) return;
  Env* env = f.env.get();
  Dataset* ds = f.ds.get();
  out->tail_pct = 99;
  out->fixed_rate = 12.5;
  out->nominal = 17.5;
  out->limit_us = 1.5e6;
  const std::vector<Arrivals> arrivals =
      PoissonArrivals(f.script.size(), out->fixed_rate, seed);
  double live_bytes = 0;
  for (const TweetRecord& r : f.latest) live_bytes += double(r.Serialize().size());
  const double space_amp =
      double(env->store()->TotalPages() * env->page_size()) / live_bytes;
  uint64_t first_round_rows = 0;
  double first_round_modeled = 0;
  // One uncounted pass leaves the modeled device where every round leaves
  // it, so each counted round replays from the same state.
  for (const QueryOp& op : f.script) {
    if (op.range) {
      auto cursor = ds->NewCursor(UserRange(op.lo, op.hi));
      QueryResult res;
      if (cursor.ok()) (void)(*cursor)->Drain(&res);
    } else {
      TweetRecord rec;
      (void)ds->GetById(op.id, &rec);
    }
  }

  RunRounds(seconds, trace, out, [&](int round, bool traced) {
    env->cache()->Clear();  // every round starts from a cold page cache
    SpanLog log(traced);
    const StorageMark mark = StorageMark::Take(env, ds);
    std::vector<Job> jobs;
    jobs.reserve(f.script.size());
    std::vector<double> wall, get_us, range_us;
    double get_pages = 0, range_io_us = 0, modeled_us = 0;
    uint64_t gets = 0, ranges = 0, rows = 0, failed = 0;
    CursorStats cs_sum;
    const int32_t round_span = log.Open(kRound, -1, 0);
    const int64_t start = NowNs();
    for (size_t i = 0; i < f.script.size(); i++) {
      const QueryOp& op = f.script[i];
      const int32_t op_span = log.Open(kOp, round_span, i + 1);
      const IoStats io0 = env->stats();
      const double m0 = io0.simulated_us + ds->wal()->stats().simulated_us;
      bool ok = true;
      int64_t t0 = NowNs(), t1 = 0;
      if (!op.range) {
        TweetRecord rec;
        const Status st = ds->GetById(op.id, &rec);
        t1 = NowNs();
        ok = st.ok() && rec.id == op.id;
        log.Add(kQueryGet, op_span, i + 1, t0, t1);
        get_us.push_back(double(t1 - t0) * 1e-3);
        get_pages += double(env->stats().pages_read - io0.pages_read);
        gets++;
        rows += ok ? 1 : 0;
      } else {
        auto cursor = ds->NewCursor(UserRange(op.lo, op.hi));
        const int64_t o1 = NowNs();
        log.Add(kQueryOpen, op_span, i + 1, t0, o1);
        ok = cursor.ok();
        int64_t p0 = o1;
        while (ok && !(*cursor)->done()) {
          QueryPage page;
          ok = (*cursor)->Next(&page).ok();
          const int64_t p1 = NowNs();
          log.Add(kQueryPull, op_span, i + 1, p0, p1);
          p0 = p1;
        }
        t1 = p0;
        range_us.push_back(double(t1 - t0) * 1e-3);
        ranges++;
        if (ok) {
          const CursorStats& cs = (*cursor)->stats();
          rows += cs.rows;
          cs_sum.rows += cs.rows;
          cs_sum.candidates += cs.candidates;
          cs_sum.validated_out += cs.validated_out;
          cs_sum.candidate_chunks += cs.candidate_chunks;
          range_io_us += cs.io_simulated_us;
        }
      }
      const double m1 = ModeledUs(env, ds);
      log.Close(op_span);
      wall.push_back(double(t1 - t0) * 1e-3);
      Job job;
      job.service_us = m1 - m0;
      job.failed = !ok;
      jobs.push_back(job);
      modeled_us += job.service_us;
      failed += ok ? 0 : 1;
    }
    const int64_t end = NowNs();
    log.Close(round_span);
    out->attempted += f.script.size();
    out->failed += failed;
    if (round == 0) {
      first_round_rows = rows;
      first_round_modeled = modeled_us;
    } else {
      out->Check(rows == first_round_rows,
                 "query round returned a different row count than round 0");
      out->Check(modeled_us == first_round_modeled,
                 "query round modeled cost differs from round 0");
    }
    RoundTime rt{Seconds(end - start), f.script.size()};
    if (!traced) {
      out->rounds.push_back(Summarize(out, wall, rt.timed_s, rt.ops,
                                      modeled_us, jobs, arrivals, space_amp));
      auto& g = out->class_us["get"];
      g.insert(g.end(), get_us.begin(), get_us.end());
      auto& r = out->class_us["range"];
      r.insert(r.end(), range_us.begin(), range_us.end());
      return rt;
    }
    mark.AddTo(out, env, ds);
    auto& L = out->layer;
    L["query.gets"] += double(gets);
    L["query.ranges"] += double(ranges);
    L["query.get_pages"] += get_pages;
    L["query.candidates"] += double(cs_sum.candidates);
    L["query.validated_out"] += double(cs_sum.validated_out);
    L["query.rows"] += double(cs_sum.rows);
    L["query.candidate_chunks"] += double(cs_sum.candidate_chunks);
    L["query.range_io_us"] += range_io_us;
    out->spans.push_back(std::move(log.spans()));
    return rt;
  });
  if (!out->correct) return;
  CheckQuery(f, seed, out);
}

// --- service -------------------------------------------------------------------------

constexpr uint64_t kServicePreload = 30000;
constexpr uint64_t kServiceOps = 40000;  ///< script requests per round
constexpr size_t kConnections = 4;
constexpr double kServiceRate = 1250;    ///< offered rate of the script (ops/s)

struct ServiceFixture {
  std::unique_ptr<Env> env;
  std::unique_ptr<Dataset> ds;
  std::vector<server::Request> script;
  std::vector<Arrivals> arrivals;  ///< [0] stamps the script
  double live_bytes = 0;  ///< serialized bytes of the records live after the script
};

ServiceFixture MakeServiceFixture(uint64_t seed, Output* out) {
  using server::Request;
  using server::RequestType;
  ServiceFixture f;
  const int64_t t0 = NowNs();
  TweetGenOptions go;
  go.seed = seed;
  TweetGenerator gen(go);
  std::vector<TweetRecord> load;
  load.reserve(kServicePreload);
  for (uint64_t i = 0; i < kServicePreload; i++) load.push_back(gen.Next());
  // Zipfian reads and hot-key writes over the preloaded keys: both draw the
  // same popular keys, so hot writes invalidate what hot reads cached.
  HotKeyOptions ho;
  ho.skew = HotKeyOptions::Skew::kZipf;
  ho.domain = kServicePreload;
  ho.theta = 0.99;
  ho.seed = seed + 3;
  HotKeyGenerator hot_get(ho);
  ho.seed = seed + 4;
  HotKeyGenerator hot_put(ho);
  Random rng(seed * 0x9E3779B97F4A7C15ULL + 5);
  f.arrivals = PoissonArrivals(kServiceOps, kServiceRate, seed);
  f.script.reserve(kServiceOps);
  for (uint64_t i = 0; i < kServiceOps; i++) {
    Request req;
    req.request_id = i + 1;
    req.arrival_us = f.arrivals[0][i];
    const double u = rng.NextDouble();
    if (u < 0.45) {
      req.type = RequestType::kGet;
      req.id = gen.IdAt(hot_get.Next());
    } else if (u < 0.60) {
      req.type = RequestType::kQuery;
      req.index_name = "user_id";
      req.range_lo = rng.Uniform(kUserDomain - 300);
      req.range_hi = req.range_lo + 299;
      req.limit = 40;
      req.page_size = 10;
    } else if (u < 0.85) {
      req.type = RequestType::kUpsert;
      req.record = gen.Next();
    } else {
      req.type = RequestType::kUpsert;
      req.record = gen.Update(hot_put.Next());
    }
    f.script.push_back(std::move(req));
  }
  std::unordered_map<uint64_t, size_t> sizes;
  for (const TweetRecord& r : load) sizes[r.id] = r.Serialize().size();
  for (const Request& r : f.script) {
    if (r.type == RequestType::kUpsert) {
      sizes[r.record.id] = r.record.Serialize().size();
    }
  }
  for (const auto& [id, bytes] : sizes) f.live_bytes += double(bytes);
  const int64_t t1 = NowNs();

  EnvOptions eo;
  eo.page_size = 4096;
  eo.cache_pages = 1024;  // 4 MiB page cache; the data does not fit
  eo.cache_shards = 1;
  eo.disk_profile = DiskProfile::Ssd();
  eo.io_queues = 1;
  eo.scan_readahead_pages = 64;
  f.env = std::make_unique<Env>(eo);
  DatasetOptions o;
  o.strategy = MaintenanceStrategy::kEager;
  o.secondary_indexes = {SecondaryIndexDef::UserId()};
  o.enable_primary_key_index = true;
  o.mem_budget_bytes = 1u << 20;
  o.merge_size_ratio = 1.2;
  o.max_mergeable_bytes = 4u << 20;
  o.writer_threads = 1;
  o.maintenance_threads = 1;
  o.tuple_cache_bytes = 4u << 20;  // holds the hot set
  f.ds = std::make_unique<Dataset>(f.env.get(), o);
  for (const TweetRecord& r : load) {
    const Status st = f.ds->Upsert(r);
    out->Check(st.ok(), "service fixture upsert: " + st.ToString());
    if (!st.ok()) break;
  }
  const Status st = f.ds->FlushAll();
  out->Check(st.ok(), "service fixture flush: " + st.ToString());
  out->setup_s.push_back(Seconds(NowNs() - t0));
  out->gen_s.push_back(Seconds(t1 - t0));
  return f;
}

/// The order-insensitive result fold of workload/open_loop.cc, repeated
/// here so wire results compare with RunOpenLoopInProcess by one integer.
uint64_t MixResult(uint64_t request_id, uint64_t tag, uint64_t value) {
  uint64_t h = request_id * 0x9E3779B97F4A7C15ULL;
  h ^= (tag + 1) * 0xC2B2AE3D27D4EB4FULL;
  h ^= value * 0x165667B19E3779F9ULL;
  h ^= h >> 29;
  return h;
}

struct WireResult {
  double completion_us = 0;
  double latency_us = 0;
  uint64_t request_id = 0;
  bool failed = false;
};

void RunService(uint64_t seed, double seconds, bool trace, Output* out) {
  using server::ClientConnection;
  using server::Request;
  using server::RequestType;
  using server::Response;
  using server::ResponseCode;
  out->tail_pct = 99;
  out->fixed_rate = kServiceRate;
  out->nominal = 1800;
  out->limit_us = 30000;
  std::vector<uint64_t> checksums;

  RunRounds(seconds, trace, out, [&](int /*round*/, bool traced) {
    ServiceFixture f = MakeServiceFixture(seed, out);
    Env* env = f.env.get();
    Dataset* ds = f.ds.get();
    server::ServerOptions so;
    so.max_batch = 16;
    so.worker_threads = 1;
    so.max_open_cursors_per_connection = 64;
    so.collect_latencies = false;
    server::RequestServer srv(ds, so);
    std::vector<ClientConnection*> conns;
    for (size_t i = 0; i < kConnections; i++) conns.push_back(srv.Connect());

    SpanLog log(traced);
    const StorageMark mark = StorageMark::Take(env, ds);
    const TupleCacheStats tc0 = ds->tuple_cache_stats();
    const uint64_t lookups0 = ds->ingest_stats().ingest_point_lookups.load();
    std::vector<double> wall;
    wall.reserve(f.script.size());
    std::vector<WireResult> results;
    results.reserve(f.script.size() * 2);
    std::unordered_map<uint64_t, uint64_t> rows_seen;
    uint64_t checksum = 0, outstanding = 0, failed = 0;
    double encode_s = 0, poll_s = 0, receive_s = 0;

    auto harvest = [&](ClientConnection* c) -> size_t {
      size_t received = 0;
      for (Response& r : c->Receive()) {
        outstanding--;
        received++;
        const bool bad = r.code == ResponseCode::kRetryable ||
                         r.code == ResponseCode::kBadRequest ||
                         r.code == ResponseCode::kError;
        failed += bad ? 1 : 0;
        uint64_t& row = rows_seen[r.request_id];
        checksum +=
            MixResult(r.request_id, 0, (uint64_t(r.code) << 32) | r.count);
        for (const TweetRecord& rec : r.records) {
          checksum += MixResult(r.request_id, 1 + row, rec.id);
          row++;
        }
        results.push_back(
            WireResult{r.completion_us, r.latency_us, r.request_id, bad});
        if (r.code == ResponseCode::kOk && !r.done && r.cursor_id != 0) {
          Request next;
          next.request_id = r.request_id;
          next.type = RequestType::kCursorNext;
          next.cursor_id = r.cursor_id;
          next.arrival_us = r.completion_us;
          c->Send(next.EncodeFrame());
          outstanding++;
        }
      }
      return received;
    };

    const int32_t round_span = log.Open(kRound, -1, 0);
    const int64_t start = NowNs();
    for (size_t i = 0; i < f.script.size(); i++) {
      const int64_t t0 = NowNs();
      conns[i % kConnections]->Send(f.script[i].EncodeFrame());
      outstanding++;
      const int64_t t1 = NowNs();
      srv.Poll();
      const int64_t t2 = NowNs();
      for (ClientConnection* c : conns) harvest(c);
      const int64_t t3 = NowNs();
      encode_s += Seconds(t1 - t0);
      poll_s += Seconds(t2 - t1);
      receive_s += Seconds(t3 - t2);
      wall.push_back(double(t3 - t0) * 1e-3);
      if (traced) {
        const int32_t op_span = log.Add(kOp, round_span, i + 1, t0, t3);
        log.Add(kServerEncode, op_span, i + 1, t0, t1);
        log.Add(kServerPoll, op_span, i + 1, t1, t2);
        log.Add(kServerReceive, op_span, i + 1, t2, t3);
      }
    }
    while (outstanding > 0) {
      const int64_t t1 = NowNs();
      const size_t dispatched = srv.PollUntilIdle();
      const int64_t t2 = NowNs();
      size_t received = 0;
      for (ClientConnection* c : conns) received += harvest(c);
      const int64_t t3 = NowNs();
      poll_s += Seconds(t2 - t1);
      receive_s += Seconds(t3 - t2);
      log.Add(kServerPoll, round_span, 0, t1, t2);
      log.Add(kServerReceive, round_span, 0, t2, t3);
      if (dispatched == 0 && received == 0) {
        out->Fail("service drain made no progress");
        break;
      }
    }
    const int64_t end = NowNs();
    log.Close(round_span);
    out->attempted += f.script.size();
    out->failed += failed;
    checksums.push_back(checksum);

    RoundTime rt{Seconds(end - start), f.script.size()};
    if (!traced) {
      // Rebuild the server's single-queue FIFO from its stamps: dispatch
      // order is completion order, service = completion - max(arrival,
      // previous completion); a continuation arrives at its previous
      // page's completion.
      std::stable_sort(results.begin(), results.end(),
                       [](const WireResult& a, const WireResult& b) {
                         return a.completion_us < b.completion_us;
                       });
      std::unordered_map<uint64_t, int64_t> last_page;
      std::vector<Job> jobs;
      std::vector<double> server_lat;
      double prev = 0;
      for (const WireResult& r : results) {
        Job job;
        const double arrival = r.completion_us - r.latency_us;
        job.service_us = r.completion_us - std::max(arrival, prev);
        prev = r.completion_us;
        auto it = last_page.find(r.request_id);
        if (it != last_page.end()) job.follows = it->second;
        job.failed = r.failed;
        last_page[r.request_id] = int64_t(jobs.size());
        jobs.push_back(job);
        server_lat.push_back(r.latency_us);
      }
      // Script requests are dispatched in script order (one per poll), so
      // the non-continuation jobs take the script's stamps in order.
      const std::vector<double> model =
          QueueLatencies(jobs, f.arrivals[0], 1.0);
      double worst = 0;
      for (size_t i = 0; i < model.size(); i++) {
        worst = std::max(worst, std::abs(model[i] - server_lat[i]) /
                                    std::max(1.0, server_lat[i]));
      }
      out->Check(worst < 1e-6, "queue model does not reproduce the server's "
                               "modeled latencies");
      const double modeled =
          ModeledUs(env, ds) - (mark.io.simulated_us + mark.wal_us);
      const double space =
          double(env->store()->TotalPages() * env->page_size()) /
          f.live_bytes;
      out->rounds.push_back(Summarize(out, std::move(wall), rt.timed_s,
                                      rt.ops, modeled, jobs, f.arrivals,
                                      space));
      return rt;
    }
    mark.AddTo(out, env, ds);
    const TupleCacheStats tc = ds->tuple_cache_stats() - tc0;
    const server::ServerStats ss = srv.stats();
    auto& L = out->layer;
    L["tcache.hits"] += double(tc.hits);
    L["tcache.misses"] += double(tc.misses);
    L["tcache.invalidations"] += double(tc.invalidations);
    L["tcache.evictions"] += double(tc.evictions);
    L["tcache.stale_drops"] += double(tc.stale_drops);
    L["core.point_lookups"] +=
        double(ds->ingest_stats().ingest_point_lookups.load() - lookups0);
    L["server.batches"] += double(ss.batches);
    L["server.dispatched"] += double(ss.requests_dispatched);
    L["server.service_modeled_s"] += ss.service_us_total * 1e-6;
    out->spans.push_back(std::move(log.spans()));
    return rt;
  });
  if (!out->correct) return;

  // Parity gate: the same script replayed in-process on a twin fixture.
  ServiceFixture twin = MakeServiceFixture(seed, out);
  OpenLoopReport rep;
  const Status st = RunOpenLoopInProcess(twin.ds.get(), twin.script, &rep);
  out->Check(st.ok(), "RunOpenLoopInProcess: " + st.ToString());
  for (uint64_t c : checksums) {
    out->Check(c == rep.result_checksum,
               "wire checksum differs from the in-process replay");
  }
}

// --- Output --------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> EndToEnd(const Output& out) {
  auto median = [&](double RoundMetrics::*field) {
    std::vector<double> v;
    for (const RoundMetrics& r : out.rounds) v.push_back(r.*field);
    return Median(std::move(v));
  };
  // The tail pools every untraced round: per round it would rest on only a
  // few samples beyond it.
  std::vector<double> wall = out.wall_us;
  std::sort(wall.begin(), wall.end());
  if (!TailSupported(wall.size(), out.tail_pct)) {
    std::fprintf(stderr, "perfbench: warning: %zu wall samples beyond p%g\n",
                 SamplesBeyond(wall.size(), out.tail_pct), out.tail_pct);
  }
  return {
      {"setup_s", Median(out.setup_s), "s"},
      {"ops_per_s", median(&RoundMetrics::ops_per_s), "1/s"},
      {"wall_p50_us", median(&RoundMetrics::wall_p50_us), "us"},
      {"wall_tail_us", NearestRank(wall, out.tail_pct), "us"},
      {"modeled_us_per_op", median(&RoundMetrics::modeled_us_per_op), "us"},
      {"modeled_p50_ms", median(&RoundMetrics::modeled_p50_ms), "ms"},
      {"modeled_p99_ms", median(&RoundMetrics::modeled_p99_ms), "ms"},
      {"max_rate_ops_s", median(&RoundMetrics::max_rate_ops_s), "1/s"},
      {"space_amp", median(&RoundMetrics::space_amp), "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> PerLayer(Output& out) {
  std::vector<double> self_s, tmp_s;
  std::vector<uint64_t> calls, tmp_calls;
  self_s.assign(kNumSpanNames, 0);
  calls.assign(kNumSpanNames, 0);
  uint64_t spans = 0;
  for (const auto& s : out.spans) {
    SelfTimeByName(s, kNumSpanNames, &tmp_s, &tmp_calls);
    for (size_t i = 0; i < kNumSpanNames; i++) {
      self_s[i] += tmp_s[i];
      calls[i] += tmp_calls[i];
    }
    spans += s.size();
  }
  const double rounds = std::max(1, out.traced_rounds);
  auto per_round = [&](double v) { return v / rounds; };
  auto L = [&](const std::string& k) {
    auto it = out.layer.find(k);
    return it == out.layer.end() ? 0.0 : it->second;
  };
  auto pct = [&](const std::string& cls, double p) {
    std::vector<double> v = out.class_us[cls];
    std::sort(v.begin(), v.end());
    return NearestRank(v, p);
  };
  const double untraced_per_op = Ratio(out.timed_s, double(out.timed_ops));
  const double traced_per_op = Ratio(out.traced_s, double(out.traced_ops));
  return {
      {"round.ops", per_round(double(out.traced_ops)), "count"},
      {"workload.gen_s", Median(out.gen_s), "s"},
      {"core.write_s", per_round(self_s[kCoreWrite]), "s"},
      {"core.write_calls", per_round(double(calls[kCoreWrite])), "count"},
      {"core.point_lookups", per_round(L("core.point_lookups")), "count"},
      {"maint.stall_s", per_round(self_s[kMaintStall]), "s"},
      {"maint.stall_calls", per_round(double(calls[kMaintStall])), "count"},
      {"maint.flushes", per_round(L("maint.flushes")), "count"},
      {"maint.merges", per_round(L("maint.merges")), "count"},
      {"maint.drain_s", per_round(self_s[kMaintDrain]), "s"},
      {"exec.backlog_max", L("exec.backlog_max"), "count"},
      {"proc.cpu_s", per_round(L("proc.cpu_s")), "s"},
      {"proc.cpu_per_wall", Ratio(L("proc.cpu_s"), L("proc.wall_s")), "ratio"},
      {"wal.records", per_round(L("wal.records")), "count"},
      {"wal.syncs", per_round(L("wal.syncs")), "count"},
      {"wal.commits_per_sync", Ratio(L("wal.commits"), L("wal.syncs")),
       "ratio"},
      {"wal.modeled_s", per_round(L("wal.modeled_s")), "s"},
      {"lsm.write_amp",
       Ratio(L("io.bytes_written"), L("lsm.user_bytes")), "ratio"},
      {"lsm.disk_components", per_round(L("lsm.disk_components")), "count"},
      {"lsm.space_bytes", per_round(L("lsm.space_bytes")), "bytes"},
      {"io.pages_written", per_round(L("io.pages_written")), "count"},
      {"io.pages_read", per_round(L("io.pages_read")), "count"},
      {"io.random_reads", per_round(L("io.random_reads")), "count"},
      {"io.seq_reads", per_round(L("io.seq_reads")), "count"},
      {"io.modeled_s", per_round(L("io.modeled_s")), "s"},
      {"io.crit_s", per_round(L("io.crit_s")), "s"},
      {"env.cache_hit_ratio", Ratio(L("env.cache_hits"), L("env.cache_lookups")),
       "ratio"},
      {"env.cache_evictions", per_round(L("env.cache_evictions")), "count"},
      {"io.pages_read_per_get", Ratio(L("query.get_pages"), L("query.gets")),
       "ratio"},
      {"query.open_s", per_round(self_s[kQueryOpen]), "s"},
      {"query.pull_s", per_round(self_s[kQueryPull]), "s"},
      {"query.get_s", per_round(self_s[kQueryGet]), "s"},
      {"query.candidates", per_round(L("query.candidates")), "count"},
      {"query.validated_out", per_round(L("query.validated_out")), "count"},
      {"query.rows", per_round(L("query.rows")), "count"},
      {"query.rows_per_candidate",
       Ratio(L("query.rows"), L("query.candidates")), "ratio"},
      {"query.candidate_chunks", per_round(L("query.candidate_chunks")),
       "count"},
      {"query.modeled_ms_per_range",
       Ratio(L("query.range_io_us") * 1e-3, L("query.ranges")), "ms"},
      {"tcache.hit_ratio",
       Ratio(L("tcache.hits"), L("tcache.hits") + L("tcache.misses")),
       "ratio"},
      {"tcache.hits", per_round(L("tcache.hits")), "count"},
      {"tcache.misses", per_round(L("tcache.misses")), "count"},
      {"tcache.invalidations", per_round(L("tcache.invalidations")), "count"},
      {"tcache.evictions", per_round(L("tcache.evictions")), "count"},
      {"tcache.stale_drops", per_round(L("tcache.stale_drops")), "count"},
      {"server.encode_s", per_round(self_s[kServerEncode]), "s"},
      {"server.poll_s", per_round(self_s[kServerPoll]), "s"},
      {"server.receive_s", per_round(self_s[kServerReceive]), "s"},
      {"server.batches", per_round(L("server.batches")), "count"},
      {"server.mean_batch", Ratio(L("server.dispatched"), L("server.batches")),
       "ratio"},
      {"server.service_modeled_s", per_round(L("server.service_modeled_s")),
       "s"},
      {"bench.self_s", per_round(self_s[kOp]), "s"},
      {"trace.spans", per_round(double(spans)), "count"},
      {"trace.overhead_pct",
       untraced_per_op > 0 ? (traced_per_op / untraced_per_op - 1) * 100 : 0,
       "%"},
      {"op.write_p50_us", pct("write", 50), "us"},
      {"op.write_p9999_us", pct("write", 99.99), "us"},
      {"op.get_p50_us", pct("get", 50), "us"},
      {"op.get_p99_us", pct("get", 99), "us"},
      {"op.range_p50_us", pct("range", 50), "us"},
      {"op.range_p99_us", pct("range", 99), "us"},
  };
}

std::string ResultJson(const Output& out, const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += out.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); i++) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ", i ? ", " : "",
                  metrics[i].name.c_str(), v);
    s += buf;
    s += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

int Main(int argc, char** argv) {
  std::string workload, trace_out;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(val.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = val == "1";
    } else if (flag == "--trace-out") {
      trace_out = val;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  Output out;
  if (workload == "ingest") {
    RunIngest(seed, seconds, trace, 1, &out);
  } else if (workload == "ingest_mt") {
    RunIngest(seed, seconds, trace, 2, &out);
  } else if (workload == "query") {
    RunQuery(seed, seconds, trace, &out);
  } else if (workload == "service") {
    RunService(seed, seconds, trace, &out);
  } else {
    std::fprintf(stderr,
                 "usage: perfbench --workload ingest|ingest_mt|query|service "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  std::fprintf(stderr,
               "perfbench: %s seed=%" PRIu64 " rounds=%d+%d timed_s=%.3f "
               "ops=%" PRIu64 "\n",
               workload.c_str(), seed, out.untraced_rounds, out.traced_rounds,
               out.timed_s, out.timed_ops);
  for (const RoundMetrics& r : out.rounds) {
    std::fprintf(stderr,
                 "perfbench: round ops/s=%.0f p50=%.2fus "
                 "modeled=%.3fus/op (capacity %.1f/s) p50=%.4gms p99=%.4gms "
                 "max_rate=%.1f\n",
                 r.ops_per_s, r.wall_p50_us,
                 r.modeled_us_per_op, 1e6 / r.modeled_us_per_op,
                 r.modeled_p50_ms, r.modeled_p99_ms, r.max_rate_ops_s);
  }
  if (trace && !trace_out.empty()) {
    std::ofstream f(trace_out);
    f << ChromeTraceJson(out.spans, kSpanNames, 100000);
  }
  const std::vector<Metric> metrics =
      trace ? PerLayer(out) : EndToEnd(out);
  std::printf("%s\n", ResultJson(out, metrics).c_str());
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
