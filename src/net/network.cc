#include "net/network.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace bdio::net {

namespace {
/// Loopback copies don't touch the NIC; they complete after a token delay.
constexpr SimDuration kLoopbackLatency = Micros(50);
/// Small per-transfer setup latency (connection + protocol overhead).
constexpr SimDuration kFlowSetupLatency = Micros(200);
}  // namespace

Network::Network(sim::Simulator* sim, uint32_t num_nodes,
                 double link_bytes_per_sec)
    : sim_(sim),
      num_nodes_(num_nodes),
      link_rate_(link_bytes_per_sec),
      node_stats_(num_nodes) {
  BDIO_CHECK(sim != nullptr);
  BDIO_CHECK(num_nodes > 0);
  BDIO_CHECK(link_bytes_per_sec > 0);
}

void Network::AttachObs(obs::TraceSession* trace,
                        obs::MetricsRegistry* metrics) {
  trace_ = trace;
  if (metrics == nullptr) return;
  m_tx_bytes_.resize(num_nodes_);
  m_rx_bytes_.resize(num_nodes_);
  for (uint32_t n = 0; n < num_nodes_; ++n) {
    const obs::Labels labels{{"node", std::to_string(n)}};
    m_tx_bytes_[n] = metrics->GetCounter("net.link_tx_bytes", labels);
    m_rx_bytes_[n] = metrics->GetCounter("net.link_rx_bytes", labels);
  }
  m_rate_recomputes_ = metrics->GetCounter("net.rate_recomputes");
  m_water_fill_rounds_ = metrics->GetCounter("net.water_fill_rounds");
}

void Network::Transfer(uint32_t src, uint32_t dst, uint64_t bytes,
                       InlineFn cb) {
  BDIO_CHECK(src < num_nodes_ && dst < num_nodes_);
  node_stats_[src].bytes_sent += bytes;
  node_stats_[dst].bytes_received += bytes;
  total_bytes_ += bytes;
  if (!m_tx_bytes_.empty()) {
    m_tx_bytes_[src]->Add(bytes);
    m_rx_bytes_[dst]->Add(bytes);
  }
  if (trace_ && src != dst && bytes > 0) {
    // Span over the transfer's lifetime, stepping the caller's flow so
    // remote reads/pipeline legs stay linked across the wire.
    const uint64_t span = trace_->BeginSpan(
        src + 1, "net", "xfer",
        "{\"src\":" + std::to_string(src) + ",\"dst\":" +
            std::to_string(dst) + ",\"bytes\":" + std::to_string(bytes) +
            "}");
    trace_->FlowStep(trace_->current_flow(), src + 1);
    cb = [trace = trace_, span, inner = std::move(cb)]() mutable {
      trace->EndSpan(span);
      if (inner) inner();
    };
  }
  if (src == dst || bytes == 0) {
    sim_->ScheduleAfter(kLoopbackLatency, std::move(cb));
    return;
  }
  AdvanceTo(sim_->Now());
  Flow& flow = flows_.emplace_back();
  flow.src = src;
  flow.dst = dst;
  flow.remaining = static_cast<double>(bytes);
  flow.cb = std::move(cb);
  OnChange();
}

void Network::AdvanceTo(SimTime now) {
  BDIO_CHECK(now >= last_advance_);
  const double dt = ToSeconds(now - last_advance_);
  if (dt > 0) {
    for (Flow& f : flows_) {
      f.remaining = std::max(0.0, f.remaining - f.rate * dt);
    }
  }
  last_advance_ = now;
}

void Network::SetNodeLinkFactor(uint32_t node, double factor) {
  BDIO_CHECK(node < num_nodes_);
  BDIO_CHECK(factor > 0 && factor <= 1.0);
  if (link_factor_.empty()) {
    if (factor == 1.0) return;  // never throttled; stay on the exact path
    link_factor_.assign(num_nodes_, 1.0);
  }
  link_factor_[node] = factor;
  // Re-split capacity among in-flight flows at the new rate.
  AdvanceTo(sim_->Now());
  OnChange();
}

std::vector<Network::FlowRate> Network::FlowRates() const {
  std::vector<FlowRate> out;
  out.reserve(flows_.size());
  for (const Flow& f : flows_) out.push_back({f.src, f.dst, f.rate});
  return out;
}

void Network::OnChange() {
  // Retire flows that are already done (sub-byte residue => done).
  size_t kept = 0;
  for (size_t i = 0; i < flows_.size(); ++i) {
    Flow& f = flows_[i];
    if (f.remaining <= 0.5) {
      if (f.cb) sim_->ScheduleAfter(SimDuration{}, std::move(f.cb));
    } else {
      if (kept != i) flows_[kept] = std::move(f);
      ++kept;
    }
  }
  flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(kept),
               flows_.end());
  ++generation_;  // the pending completion wake-up is stale now
  if (flows_.empty() || recompute_pending_) return;
  recompute_pending_ = true;
  sim_->ScheduleAfter(SimDuration{}, [this] { Recompute(); });
}

void Network::Recompute() {
  recompute_pending_ = false;
  if (flows_.empty()) return;
  ComputeRates();
  // Next completion.
  double min_time = std::numeric_limits<double>::infinity();
  for (const Flow& f : flows_) {
    BDIO_CHECK(f.rate > 0);
    min_time = std::min(min_time, f.remaining / f.rate);
  }
  const uint64_t gen = generation_;
  const SimDuration dt = FromSeconds(min_time) + kFlowSetupLatency;
  sim_->ScheduleAfter(dt, [this, gen] {
    if (gen != generation_) return;  // superseded by a later change
    AdvanceTo(sim_->Now());
    OnChange();
  });
}

void Network::ComputeRates() {
  // Max-min fair water-filling over per-node egress/ingress capacities.
  ++rate_recomputes_;
  egress_.assign(num_nodes_, link_rate_);
  ingress_.assign(num_nodes_, link_rate_);
  if (!link_factor_.empty()) {
    for (uint32_t n = 0; n < num_nodes_; ++n) {
      egress_[n] = link_rate_ * link_factor_[n];
      ingress_[n] = link_rate_ * link_factor_[n];
    }
  }
  egress_count_.assign(num_nodes_, 0);
  ingress_count_.assign(num_nodes_, 0);
  unfixed_.resize(flows_.size());
  for (uint32_t i = 0; i < flows_.size(); ++i) {
    ++egress_count_[flows_[i].src];
    ++ingress_count_[flows_[i].dst];
    unfixed_[i] = i;
  }
  uint64_t rounds = 0;
  while (!unfixed_.empty()) {
    ++rounds;
    // Find the tightest constraint among nodes with unfixed flows.
    double best_share = std::numeric_limits<double>::infinity();
    for (uint32_t n = 0; n < num_nodes_; ++n) {
      if (egress_count_[n] > 0) {
        best_share = std::min(best_share, egress_[n] / egress_count_[n]);
      }
      if (ingress_count_[n] > 0) {
        best_share = std::min(best_share, ingress_[n] / ingress_count_[n]);
      }
    }
    BDIO_CHECK(std::isfinite(best_share));
    // Fix every unfixed flow passing through a bottleneck at best_share,
    // in start order; the rest stay in `unfixed_`, still in start order.
    // An unfixed flow counts at both its nodes, so neither count is 0.
    const double limit = best_share * (1 + 1e-9);
    size_t kept = 0;
    for (const uint32_t i : unfixed_) {
      Flow& f = flows_[i];
      if (egress_[f.src] / egress_count_[f.src] > limit &&
          ingress_[f.dst] / ingress_count_[f.dst] > limit) {
        unfixed_[kept++] = i;
        continue;
      }
      f.rate = best_share;
      egress_[f.src] -= best_share;
      ingress_[f.dst] -= best_share;
      --egress_count_[f.src];
      --ingress_count_[f.dst];
    }
    BDIO_CHECK(kept < unfixed_.size())
        << "water-filling failed to make progress";
    unfixed_.resize(kept);
  }
  water_fill_rounds_ += rounds;
  if (m_rate_recomputes_ != nullptr) {
    m_rate_recomputes_->Inc();
    m_water_fill_rounds_->Add(rounds);
  }
}

}  // namespace bdio::net
