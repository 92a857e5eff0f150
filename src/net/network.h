#ifndef BDIO_NET_NETWORK_H_
#define BDIO_NET_NETWORK_H_

#include <cstdint>
#include <vector>

#include "common/inline_fn.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace bdio::net {

/// Per-node traffic counters.
struct NodeNetStats {
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
};

/// Fluid-flow model of a non-blocking switched fabric (the paper's 1 GbE):
/// every node has a full-duplex NIC of `link_bytes_per_sec`; concurrent
/// flows receive the max-min fair allocation subject to the egress capacity
/// of the sender and ingress capacity of the receiver.
///
/// A change (a flow starting, a flow finishing, a link factor moving)
/// retires finished flows at once and arms one zero-delay recompute event;
/// every further change before that event runs rides on it, so a burst of
/// changes at one sim timestamp costs one water-fill. Rates are read only
/// when sim time moves on, by which point the recompute has run over the
/// final flow set of the timestamp, so the allocation is the one an eager
/// per-change recompute would leave behind.
class Network {
 public:
  /// 1 GbE at protocol efficiency ~0.95 => ~118 MB/s of payload.
  static constexpr double kGigabitPayloadBytesPerSec = 118.0e6;

  Network(sim::Simulator* sim, uint32_t num_nodes,
          double link_bytes_per_sec = kGigabitPayloadBytesPerSec);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Moves `bytes` from node `src` to node `dst`; `cb` fires at completion.
  /// A src==dst transfer completes after a fixed small loopback latency
  /// without consuming NIC capacity.
  void Transfer(uint32_t src, uint32_t dst, uint64_t bytes, InlineFn cb);

  /// Attaches observability sinks (either may be null): per-link transfers
  /// become spans continuing the caller's current flow, and per-node
  /// tx/rx byte counters and the recompute work counters feed the
  /// registry.
  void AttachObs(obs::TraceSession* trace, obs::MetricsRegistry* metrics);

  /// Scales node `node`'s NIC capacity (both directions) by `factor` in
  /// (0, 1] — the fault-injection model of a flapping or auto-negotiated-
  /// down link. In-flight flows are re-allocated at the current sim time
  /// (by the pending recompute event). Factor 1.0
  /// (the default) leaves the fabric bit-exact with the unthrottled model.
  void SetNodeLinkFactor(uint32_t node, double factor);
  double node_link_factor(uint32_t node) const {
    return link_factor_.empty() ? 1.0 : link_factor_[node];
  }

  uint32_t num_nodes() const { return num_nodes_; }
  size_t active_flows() const { return flows_.size(); }
  const NodeNetStats& node_stats(uint32_t node) const {
    return node_stats_[node];
  }
  uint64_t total_bytes() const { return total_bytes_; }
  /// Max-min water-fills run so far (one per burst of changes).
  uint64_t rate_recomputes() const { return rate_recomputes_; }
  /// Bottleneck rounds summed over those water-fills.
  uint64_t water_fill_rounds() const { return water_fill_rounds_; }

  /// One in-flight flow's current allocation.
  struct FlowRate {
    uint32_t src = 0;
    uint32_t dst = 0;
    double rate = 0;  ///< Bytes/sec.
  };
  /// The in-flight flows in start order. Their rates are the max-min
  /// allocation of exactly this flow set whenever no recompute is pending.
  std::vector<FlowRate> FlowRates() const;
  bool recompute_pending() const { return recompute_pending_; }

 private:
  struct Flow {
    uint32_t src = 0;
    uint32_t dst = 0;
    double remaining = 0;  ///< Bytes left.
    double rate = 0;       ///< Bytes/sec under the current allocation.
    InlineFn cb;
  };

  /// Called after AdvanceTo(Now()) by every change: retires finished flows
  /// (their callbacks run as zero-delay events, in start order),
  /// invalidates the pending completion wake-up and arms the recompute.
  void OnChange();
  /// The zero-delay recompute event: one water-fill, then the wake-up for
  /// the next completion.
  void Recompute();
  void AdvanceTo(SimTime now);
  void ComputeRates();

  sim::Simulator* sim_;
  uint32_t num_nodes_;
  double link_rate_;
  /// Per-node capacity factors; empty until a throttle is installed so the
  /// healthy path stays allocation-free and bit-exact.
  std::vector<double> link_factor_;
  /// In start order: new flows are appended and retired ones removed by a
  /// stable compaction. OnChange retires callbacks in this order and
  /// ComputeRates accumulates doubles over it, so the order must be a pure
  /// function of the flow history (rule R1).
  std::vector<Flow> flows_;
  uint64_t generation_ = 0;  ///< Invalidates stale completion events.
  bool recompute_pending_ = false;
  SimTime last_advance_;
  uint64_t rate_recomputes_ = 0;
  uint64_t water_fill_rounds_ = 0;
  // ComputeRates scratch, reused across calls: residual capacity and
  // unfixed-flow counts per node, and the unfixed flows' indices in start
  // order.
  std::vector<double> egress_;
  std::vector<double> ingress_;
  std::vector<uint32_t> egress_count_;
  std::vector<uint32_t> ingress_count_;
  std::vector<uint32_t> unfixed_;
  std::vector<NodeNetStats> node_stats_;
  uint64_t total_bytes_ = 0;

  // Observability sinks; null (the default) keeps Transfer at one pointer
  // test. Per-node counters are resolved once at AttachObs.
  obs::TraceSession* trace_ = nullptr;
  std::vector<obs::Counter*> m_tx_bytes_;
  std::vector<obs::Counter*> m_rx_bytes_;
  obs::Counter* m_rate_recomputes_ = nullptr;
  obs::Counter* m_water_fill_rounds_ = nullptr;
};

}  // namespace bdio::net

#endif  // BDIO_NET_NETWORK_H_
