#include "fuzz/shrink.h"

#include <algorithm>

#include "fuzz/oracle.h"
#include "fuzz/serve_oracle.h"
#include "sim/fault.h"

namespace homp::fuzz {

namespace {

/// The acceptance loop both modes share. A mode's sweep proposes
/// candidates through attempt(), which spends one oracle run and adopts
/// the candidate when the invariant still fails; sweeps repeat until one
/// accepts nothing or the budget is spent.
template <class Spec>
class Shrinker {
 public:
  Shrinker(const Spec& failing, const std::string& invariant, int budget)
      : invariant_(invariant), budget_(budget) {
    out_.scenario = failing;
  }

  const Spec& cur() const noexcept { return out_.scenario; }
  bool spent() const noexcept { return out_.oracle_runs >= budget_; }

  bool attempt(Spec cand) {
    if (spent()) return false;
    ++out_.oracle_runs;
    if (!find_violation(run_oracle(cand).violations, invariant_)) {
      return false;
    }
    out_.scenario = std::move(cand);
    progressed_ = true;
    return true;
  }

  Shrunk<Spec> run(void (*sweep)(Shrinker&)) {
    for (bool again = true; again && !spent();) {
      progressed_ = false;
      sweep(*this);
      again = progressed_;
    }
    return std::move(out_);
  }

 private:
  std::string invariant_;
  int budget_;
  Shrunk<Spec> out_;
  bool progressed_ = false;
};

/// Remove accelerator `dev` (a device index >= 1) and everything that
/// referenced it: its fault-script entries go away, higher device ids
/// shift down, and links no device uses anymore are pruned.
ScenarioSpec drop_device(const ScenarioSpec& s, int dev) {
  ScenarioSpec c = s;
  c.machine.devices.erase(c.machine.devices.begin() + dev);
  std::erase_if(c.faults, [dev](const sim::ScriptedFault& f) {
    return f.device_id == dev;
  });
  for (auto& f : c.faults) {
    if (f.device_id > dev) --f.device_id;
  }
  // Prune now-unused links, remapping the indices devices carry.
  std::vector<int> remap(c.machine.links.size(), -1);
  std::vector<mach::LinkDescriptor> kept;
  for (const auto& d : c.machine.devices) {
    if (d.link == mach::kNoLink) continue;
    auto& slot = remap[static_cast<std::size_t>(d.link)];
    if (slot < 0) {
      slot = static_cast<int>(kept.size());
      kept.push_back(c.machine.links[static_cast<std::size_t>(d.link)]);
    }
  }
  for (auto& d : c.machine.devices) {
    if (d.link != mach::kNoLink) {
      d.link = remap[static_cast<std::size_t>(d.link)];
    }
  }
  c.machine.links = std::move(kept);
  return c;
}

void sweep_offload(Shrinker<ScenarioSpec>& sh) {
  // 1. Fewer devices. Iterate back to front so an accepted drop leaves
  //    earlier indices valid; always keep the host plus one accelerator.
  for (int dev = static_cast<int>(sh.cur().machine.devices.size()) - 1;
       dev >= 1 && sh.cur().machine.devices.size() > 2; --dev) {
    sh.attempt(drop_device(sh.cur(), dev));
  }

  // 2. Smaller trip count (respecting the kernel's size floor).
  while (sh.cur().n > min_trip(sh.cur().kernel) && !sh.spent()) {
    ScenarioSpec cand = sh.cur();
    cand.n = quantize_trip(cand.kernel, cand.n / 2);
    if (cand.n == sh.cur().n) break;
    if (!sh.attempt(std::move(cand))) break;
  }

  // 3. Fewer fault-script entries.
  for (int i = static_cast<int>(sh.cur().faults.size()) - 1;
       i >= 0 && !sh.spent(); --i) {
    ScenarioSpec cand = sh.cur();
    cand.faults.erase(cand.faults.begin() + i);
    sh.attempt(std::move(cand));
  }

  // 4. Quiet rate-based fault profiles, one device at a time.
  for (std::size_t d = 1; d < sh.cur().machine.devices.size() && !sh.spent();
       ++d) {
    if (!sh.cur().machine.devices[d].fault.any()) continue;
    ScenarioSpec cand = sh.cur();
    cand.machine.devices[d].fault = sim::FaultProfile{};
    sh.attempt(std::move(cand));
  }
}

/// Every candidate stays a valid scenario: jobs always reference live
/// tenants and sizes stay kernel-quantized.
void sweep_serve(Shrinker<ServeScenarioSpec>& sh) {
  // 1. Drop individual jobs (an empty run exercises nothing).
  for (std::size_t i = 0;
       i < sh.cur().jobs.size() && sh.cur().jobs.size() > 1 && !sh.spent();) {
    ServeScenarioSpec cand = sh.cur();
    cand.jobs.erase(cand.jobs.begin() + static_cast<std::ptrdiff_t>(i));
    if (!sh.attempt(std::move(cand))) ++i;
  }

  // 2. Drop whole tenants with their jobs, remapping the survivors.
  for (std::size_t t = 0; t < sh.cur().tenants.size() &&
                          sh.cur().tenants.size() > 1 && !sh.spent();) {
    const int gone = static_cast<int>(t);
    ServeScenarioSpec cand = sh.cur();
    cand.tenants.erase(cand.tenants.begin() + gone);
    std::erase_if(cand.jobs,
                  [gone](const ServeJobEntry& e) { return e.tenant == gone; });
    for (auto& e : cand.jobs) {
      if (e.tenant > gone) --e.tenant;
    }
    if (cand.jobs.empty() || !sh.attempt(std::move(cand))) ++t;
  }

  // 3. Halve job sizes (kernel-quantized, floored at min_trip).
  for (std::size_t i = 0; i < sh.cur().jobs.size() && !sh.spent(); ++i) {
    while (sh.cur().jobs[i].job.n > min_trip(sh.cur().jobs[i].job.kernel) &&
           !sh.spent()) {
      ServeScenarioSpec cand = sh.cur();
      serve::JobSpec& job = cand.jobs[i].job;
      job.n = quantize_trip(job.kernel, job.n / 2);
      if (job.n == sh.cur().jobs[i].job.n) break;
      if (!sh.attempt(std::move(cand))) break;
    }
  }

  // 4. Clear per-tenant fault scripts.
  for (std::size_t t = 0; t < sh.cur().tenants.size() && !sh.spent(); ++t) {
    if (!sh.cur().tenants[t].fault.any()) continue;
    ServeScenarioSpec cand = sh.cur();
    cand.tenants[t].fault = sim::FaultProfile{};
    sh.attempt(std::move(cand));
  }
}

}  // namespace

Shrunk<ScenarioSpec> shrink(const ScenarioSpec& failing,
                            const std::string& invariant, int max_oracle_runs) {
  return Shrinker<ScenarioSpec>(failing, invariant, max_oracle_runs)
      .run(sweep_offload);
}

Shrunk<ServeScenarioSpec> shrink(const ServeScenarioSpec& failing,
                                 const std::string& invariant,
                                 int max_oracle_runs) {
  return Shrinker<ServeScenarioSpec>(failing, invariant, max_oracle_runs)
      .run(sweep_serve);
}

}  // namespace homp::fuzz
