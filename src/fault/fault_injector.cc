#include "fault/fault_injector.h"

#include "io/io_engine.h"

namespace auxlsm {

namespace failpoints {

std::vector<const char*> AllSites() {
  return {kEnvAppendPage, kEnvReadPage, kEnvDeleteFile,  kCacheMissFill,
          kIoSubmit,      kWalAppend,   kWalSync,        kFlushBuild,
          kInstall,       kMerge,       kConcurrentBuild,
          kCacheTupleInsert, kCacheTupleInvalidate,
          kServerDecodeFrame, kServerDispatch};
}

}  // namespace failpoints

void FaultInjector::Arm(const std::string& site, FaultSpec spec) {
  MutexLock l(mu_);
  armed_[site] = ArmedSite{std::move(spec), 0};
}

void FaultInjector::Disarm(const std::string& site) {
  MutexLock l(mu_);
  armed_.erase(site);
}

void FaultInjector::DisarmAll() {
  MutexLock l(mu_);
  armed_.clear();
}

Status FaultInjector::HitLocked(const std::string& site, IoEngine* io,
                                bool parked, bool* fired) {
  *fired = false;
  if (crashed_.load(std::memory_order_acquire)) {
    // The dataset is abandoned: every storage seam fails permanently until
    // recovery resets the crash. Aborted is non-retryable by design, so
    // retry policies give up immediately instead of spinning.
    *fired = true;
    Status crashed = Status::Aborted("crashed (fault injection): " + site);
    if (parked && pending_.ok()) pending_ = crashed;
    return crashed;
  }
  auto it = armed_.find(site);
  if (it == armed_.end()) return Status::OK();
  ArmedSite& armed = it->second;
  FaultSiteStats& st = stats_[site];
  st.hits++;
  armed.hit_count++;
  bool fire;
  if (armed.spec.every_nth > 0) {
    fire = armed.hit_count % armed.spec.every_nth == 0;
  } else {
    fire = rng_.NextDouble() < armed.spec.probability;
  }
  if (!fire) return Status::OK();
  *fired = true;
  st.fires++;
  const FaultSpec spec = armed.spec;
  if (spec.one_shot) armed_.erase(it);
  switch (spec.action) {
    case FaultSpec::Action::kDelay:
      if (io != nullptr) io->ChargeDelay(spec.delay_us);
      return Status::OK();
    case FaultSpec::Action::kCrash: {
      crashed_.store(true, std::memory_order_release);
      Status crashed = Status::Aborted("crashed (fault injection): " + site);
      if (parked && pending_.ok()) pending_ = crashed;
      return crashed;
    }
    case FaultSpec::Action::kError:
    default: {
      Status err = spec.error.WithContext(site);
      if (parked && pending_.ok()) pending_ = err;
      return err;
    }
  }
}

Status FaultInjector::Hit(const std::string& site, IoEngine* io) {
  MutexLock l(mu_);
  bool fired = false;
  return HitLocked(site, io, /*parked=*/false, &fired);
}

bool FaultInjector::HitCharge(const std::string& site, IoEngine* io) {
  MutexLock l(mu_);
  bool fired = false;
  const Status st = HitLocked(site, io, /*parked=*/false, &fired);
  return fired && !st.ok();
}

bool FaultInjector::HitParked(const std::string& site, IoEngine* io) {
  MutexLock l(mu_);
  bool fired = false;
  const Status st = HitLocked(site, io, /*parked=*/true, &fired);
  return fired && !st.ok();
}

Status FaultInjector::TakePending() {
  MutexLock l(mu_);
  Status out = pending_;
  pending_ = Status::OK();
  return out;
}

void FaultInjector::ResetCrash() {
  MutexLock l(mu_);
  crashed_.store(false, std::memory_order_release);
  pending_ = Status::OK();
}

FaultSiteStats FaultInjector::site_stats(const std::string& site) const {
  MutexLock l(mu_);
  auto it = stats_.find(site);
  return it == stats_.end() ? FaultSiteStats{} : it->second;
}

uint64_t FaultInjector::TotalFires() const {
  MutexLock l(mu_);
  uint64_t total = 0;
  for (const auto& [site, st] : stats_) total += st.fires;
  return total;
}

}  // namespace auxlsm
