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
///
/// Admission is FIFO. A transfer first waits out the link's one latency
/// in a queue, and the event that ends the wait only says "admit the
/// next". That event is scheduled at now + alpha; the clock never goes
/// back and ties pop by seq, so these events fire in transfer() order
/// and the queue front is always the transfer whose latency just ended.
/// The link schedules and cancels exactly the events it would if each
/// latency event carried its own transfer, in the same order, so every
/// event keeps its seq and every output its bytes.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/callback.h"
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
  /// transfer completes. Zero-byte transfers still pay the latency. The
  /// link must outlive its transfers.
  void transfer(double bytes, Callback done);

  /// Drop every transfer in flight, destroying its callback, and zero
  /// the counters, keeping capacity. Only together with the engine's
  /// reset(), which drops the link's pending events.
  void reset();

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
  struct Transfer {
    double total;      // requested transfer size, bytes
    double remaining;  // bytes still to move
    Callback done;
  };

  void admit();        // the oldest waiting transfer starts sharing
  void advance();      // charge elapsed time against active transfers
  void reschedule();   // (re)arm the next-completion event
  void on_completion_event();

  Engine& engine_;
  std::string name_;
  double latency_;
  double bandwidth_;
  /// Transfers paying their latency, oldest first from waiting_head_;
  /// the admitted prefix is compacted away in transfer().
  std::vector<Transfer> waiting_;
  std::size_t waiting_head_ = 0;
  std::vector<Transfer> active_;  // in admission order
  std::vector<Callback> finished_;  // reused by on_completion_event()
  Time last_update_ = 0.0;
  std::uint64_t pending_event_ = 0;
  bool has_pending_event_ = false;

  double bytes_delivered_ = 0.0;
  Time busy_time_ = 0.0;
  std::size_t completed_ = 0;
};

}  // namespace homp::sim

#endif  // HOMP_SIM_LINK_H
