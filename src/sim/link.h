#ifndef HOMP_SIM_LINK_H
#define HOMP_SIM_LINK_H

/// \file link.h
/// Simulated interconnect link with Hockney latency + fair-share bandwidth.
///
/// A transfer of S bytes over an otherwise idle link takes
///     alpha + S / beta                       (Hockney's alpha-beta model,
/// the model the paper uses for DataT_dev). When k transfers overlap on the
/// same link, each receives beta/k of the bandwidth (processor sharing),
/// which captures PCIe contention between e.g. the two K40 dies sharing one
/// K80 card slot.

#include <cstdint>
#include <functional>
#include <list>
#include <string>

#include "sim/engine.h"
#include "sim/time.h"

namespace homp::sim {

class SharedLink {
 public:
  /// \param latency_s  per-transfer fixed latency (alpha), seconds
  /// \param bytes_per_s link bandwidth (beta), bytes/second
  SharedLink(Engine& engine, std::string name, double latency_s,
             double bytes_per_s);

  SharedLink(const SharedLink&) = delete;
  SharedLink& operator=(const SharedLink&) = delete;

  /// Start a transfer of `bytes`; `done` fires at the virtual time the
  /// transfer completes. Zero-byte transfers still pay the latency.
  void transfer(double bytes, std::function<void()> done);

  /// Analytic time for a contention-free transfer (used by MODEL_2).
  Time uncontended_time(double bytes) const noexcept {
    return latency_ + bytes / bandwidth_;
  }

  const std::string& name() const noexcept { return name_; }
  double bandwidth() const noexcept { return bandwidth_; }
  double latency() const noexcept { return latency_; }

  /// Cumulative bytes fully delivered over this link.
  double bytes_delivered() const noexcept { return bytes_delivered_; }
  /// Virtual time during which at least one transfer was in flight.
  Time busy_time() const noexcept { return busy_time_; }
  /// Number of transfers completed.
  std::size_t transfers_completed() const noexcept { return completed_; }

 private:
  struct Active {
    double total;      // requested transfer size, bytes
    double remaining;  // bytes still to move
    std::function<void()> done;
  };

  void admit(double bytes, std::function<void()> done);
  void advance();      // charge elapsed time against active transfers
  void reschedule();   // (re)arm the next-completion event
  void on_completion_event();

  Engine& engine_;
  std::string name_;
  double latency_;
  double bandwidth_;
  std::list<Active> active_;
  Time last_update_ = 0.0;
  std::uint64_t pending_event_ = 0;
  bool has_pending_event_ = false;

  double bytes_delivered_ = 0.0;
  Time busy_time_ = 0.0;
  std::size_t completed_ = 0;
};

}  // namespace homp::sim

#endif  // HOMP_SIM_LINK_H
