#include "runtime/runtime.h"

#include "common/error.h"
#include "machine/parser.h"
#include "machine/profiles.h"
#include "runtime/offload_exec.h"

namespace homp::rt {

Runtime::Runtime(mach::MachineDescriptor machine)
    : machine_(std::move(machine)) {
  machine_.validate();
}

Runtime Runtime::from_builtin(const std::string& name) {
  return Runtime(mach::builtin(name));
}

Runtime Runtime::from_machine_file(const std::string& path) {
  return Runtime(mach::load_machine_file(path));
}

std::vector<int> Runtime::all_devices() const {
  std::vector<int> out(machine_.devices.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<int>(i);
  return out;
}

std::vector<int> Runtime::accelerators() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < machine_.devices.size(); ++i) {
    if (!machine_.devices[i].is_host()) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<int> Runtime::devices_of_type(mach::DeviceType t) const {
  return machine_.devices_of_type(t);
}

namespace {
/// RAII release of the offload-in-flight flag: the guard must drop on
/// every exit path, including the many throw sites below offload().
struct InFlightGuard {
  std::atomic<bool>* flag;
  ~InFlightGuard() { flag->store(false, std::memory_order_release); }
};
}  // namespace

OffloadResult Runtime::offload(const LoopKernel& kernel,
                               const std::vector<mem::MapSpec>& maps,
                               const OffloadOptions& opts) const {
  // Fail fast on concurrent entry (docs/SERVING.md): two interleaved
  // offloads would race on history_ and double-use engine state that is
  // designed for one execution at a time.
  if (offload_in_flight_->exchange(true, std::memory_order_acq_rel)) {
    throw ExecutionError(
        "Runtime::offload is not re-entrant: an offload of '" + kernel.name +
        "' was requested while another offload is still in flight on this "
        "Runtime. Serialize the calls, use one Runtime per thread, or use "
        "serve::OffloadServer to run concurrent offloads on one machine.");
  }
  InFlightGuard guard{offload_in_flight_.get()};

  OffloadOptions o = opts;
  // Wire the runtime's throughput history into every offload: HISTORY_AUTO
  // partitions by it, and the watchdog consults it (whatever the
  // algorithm) to loosen its deadlines for demonstrably slow devices.
  o.sched.history = &history_;
  o.sched.history_kernel = kernel.name;
  o.sched.history_device_ids = o.device_ids;
  if (!ctx_) ctx_ = std::make_unique<ExecContext>(machine_);
  ctx_->reset();
  OffloadExecution exec(*ctx_, machine_, kernel, maps, std::move(o));
  OffloadResult res = exec.run();

  // Feed observed throughput back for HISTORY_AUTO. The rate is the
  // device's end-to-end iteration rate for this offload (including its
  // data movement), which is exactly what a proportional split needs.
  for (const auto& d : res.devices) {
    if (d.iterations > 0 && d.finish_time > 0.0) {
      history_.record(kernel.name, d.device_id,
                      static_cast<double>(d.iterations) / d.finish_time);
    }
  }
  return res;
}

std::unique_ptr<DataRegion> Runtime::map_data(std::vector<mem::MapSpec> maps,
                                              RegionOptions opts) const {
  return std::make_unique<DataRegion>(machine_, std::move(maps),
                                      std::move(opts));
}

}  // namespace homp::rt
