// Differential oracle for the fluid network: seeded random scripts run
// through net::Network and through ReferenceNetwork, a verbatim copy of the
// earlier model that re-ran the global water-fill on every change over a
// std::map of flows. Every completion callback must fire at the same sim
// time (in ns) and in the same order in both. Along the way the production
// model's allocation must be max-min fair: no node over capacity, and every
// flow has a saturated node on which its rate is the largest.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace bdio::net {
namespace {

/// The recompute-on-every-change model, kept as the reference: every
/// Transfer, SetNodeLinkFactor and completion wake-up advances the flows,
/// water-fills, retires finished flows (re-filling if any retired) and
/// schedules a generation-tagged wake-up for the next completion.
class ReferenceNetwork {
 public:
  ReferenceNetwork(sim::Simulator* sim, uint32_t num_nodes,
                   double link_bytes_per_sec =
                       Network::kGigabitPayloadBytesPerSec)
      : sim_(sim), num_nodes_(num_nodes), link_rate_(link_bytes_per_sec) {}

  void Transfer(uint32_t src, uint32_t dst, uint64_t bytes,
                std::function<void()> cb) {
    if (src == dst || bytes == 0) {
      sim_->ScheduleAfter(kLoopbackLatency, std::move(cb));
      return;
    }
    AdvanceTo(sim_->Now());
    Flow flow;
    flow.src = src;
    flow.dst = dst;
    flow.remaining = static_cast<double>(bytes);
    flow.cb = std::move(cb);
    flows_.emplace(next_flow_id_++, std::move(flow));
    Reschedule();
  }

  void SetNodeLinkFactor(uint32_t node, double factor) {
    if (link_factor_.empty()) {
      if (factor == 1.0) return;
      link_factor_.assign(num_nodes_, 1.0);
    }
    link_factor_[node] = factor;
    AdvanceTo(sim_->Now());
    Reschedule();
  }

  uint64_t rate_recomputes() const { return rate_recomputes_; }

 private:
  static constexpr SimDuration kLoopbackLatency = Micros(50);
  static constexpr SimDuration kFlowSetupLatency = Micros(200);

  struct Flow {
    uint32_t src = 0;
    uint32_t dst = 0;
    double remaining = 0;
    double rate = 0;
    std::function<void()> cb;
  };

  void AdvanceTo(SimTime now) {
    const double dt = ToSeconds(now - last_advance_);
    if (dt > 0) {
      for (auto& [id, f] : flows_) {
        f.remaining = std::max(0.0, f.remaining - f.rate * dt);
      }
    }
    last_advance_ = now;
  }

  void ComputeRates() {
    ++rate_recomputes_;
    std::vector<double> egress(num_nodes_, link_rate_);
    std::vector<double> ingress(num_nodes_, link_rate_);
    if (!link_factor_.empty()) {
      for (uint32_t n = 0; n < num_nodes_; ++n) {
        egress[n] = link_rate_ * link_factor_[n];
        ingress[n] = link_rate_ * link_factor_[n];
      }
    }
    std::vector<uint32_t> egress_count(num_nodes_, 0);
    std::vector<uint32_t> ingress_count(num_nodes_, 0);
    for (auto& [id, f] : flows_) {
      f.rate = -1;  // unfixed
      ++egress_count[f.src];
      ++ingress_count[f.dst];
    }
    size_t unfixed = flows_.size();
    while (unfixed > 0) {
      double best_share = std::numeric_limits<double>::infinity();
      for (uint32_t n = 0; n < num_nodes_; ++n) {
        if (egress_count[n] > 0) {
          best_share = std::min(best_share, egress[n] / egress_count[n]);
        }
        if (ingress_count[n] > 0) {
          best_share = std::min(best_share, ingress[n] / ingress_count[n]);
        }
      }
      BDIO_CHECK(std::isfinite(best_share));
      bool fixed_any = false;
      for (auto& [id, f] : flows_) {
        if (f.rate >= 0) continue;
        const bool src_bottleneck =
            egress_count[f.src] > 0 &&
            egress[f.src] / egress_count[f.src] <= best_share * (1 + 1e-9);
        const bool dst_bottleneck =
            ingress_count[f.dst] > 0 &&
            ingress[f.dst] / ingress_count[f.dst] <= best_share * (1 + 1e-9);
        if (!src_bottleneck && !dst_bottleneck) continue;
        f.rate = best_share;
        egress[f.src] -= best_share;
        ingress[f.dst] -= best_share;
        --egress_count[f.src];
        --ingress_count[f.dst];
        --unfixed;
        fixed_any = true;
      }
      BDIO_CHECK(fixed_any);
    }
  }

  void Reschedule() {
    ComputeRates();
    std::vector<std::function<void()>> done;
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (it->second.remaining <= 0.5) {
        done.push_back(std::move(it->second.cb));
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    if (!done.empty()) {
      for (auto& cb : done) {
        if (cb) sim_->ScheduleAfter(SimDuration{}, std::move(cb));
      }
      if (!flows_.empty()) ComputeRates();
    }
    if (flows_.empty()) return;
    double min_time = std::numeric_limits<double>::infinity();
    for (auto& [id, f] : flows_) {
      BDIO_CHECK(f.rate > 0);
      min_time = std::min(min_time, f.remaining / f.rate);
    }
    const uint64_t gen = ++generation_;
    const SimDuration dt = FromSeconds(min_time) + kFlowSetupLatency;
    sim_->ScheduleAfter(dt, [this, gen] {
      if (gen != generation_) return;
      AdvanceTo(sim_->Now());
      Reschedule();
    });
  }

  sim::Simulator* sim_;
  uint32_t num_nodes_;
  double link_rate_;
  std::vector<double> link_factor_;
  std::map<uint64_t, Flow> flows_;
  uint64_t next_flow_id_ = 1;
  uint64_t generation_ = 0;
  SimTime last_advance_;
  uint64_t rate_recomputes_ = 0;
};

/// One scripted step: a Transfer, or a SetNodeLinkFactor when `throttle`.
struct Op {
  uint64_t at_us = 0;  ///< Start time; unused for follow-ups.
  bool throttle = false;
  bool follow_up = false;  ///< Started by another op's completion.
  uint32_t a = 0;          ///< src, or the throttled node.
  uint32_t b = 0;          ///< dst.
  uint64_t bytes = 0;
  double factor = 1.0;
  int then = -1;  ///< Op this transfer's completion starts, or -1.
};

struct Script {
  uint32_t nodes = 0;
  std::vector<Op> ops;
};

uint64_t RandomBytes(Rng* rng) {
  const double pick = rng->NextDouble();
  if (pick < 0.1) return 1;
  if (pick < 0.4) return 1 + rng->Uniform(KiB(64));
  if (pick < 0.9) return KiB(64) + rng->Uniform(MiB(4));
  return MiB(4) + rng->Uniform(MiB(28));
}

/// 2-40 nodes, up to ~500 transfers: staggered starts over 2 s, bursts at
/// one timestamp, 1-byte and loopback flows, chained follow-up transfers,
/// and throttle/unthrottle steps.
Script MakeScript(uint64_t seed) {
  Rng rng(seed);
  Script s;
  s.nodes = 2 + static_cast<uint32_t>(rng.Uniform(39));
  const int transfers = 1 + static_cast<int>(rng.Uniform(400));
  uint64_t at_us = 0;
  for (int i = 0; i < transfers; ++i) {
    // Four in ten share the previous op's timestamp (a burst).
    if (i == 0 || !rng.Bernoulli(0.4)) at_us = rng.Uniform(2'000'000);
    if (rng.Bernoulli(0.05)) {
      Op t;
      t.at_us = at_us;
      t.throttle = true;
      t.a = static_cast<uint32_t>(rng.Uniform(s.nodes));
      const double factors[] = {0.1, 0.25, 0.5, 1.0, 1.0};
      t.factor = factors[rng.Uniform(5)];
      s.ops.push_back(t);
    }
    Op op;
    op.at_us = at_us;
    op.a = static_cast<uint32_t>(rng.Uniform(s.nodes));
    op.b = rng.Bernoulli(0.03) ? op.a
                               : static_cast<uint32_t>(rng.Uniform(s.nodes));
    op.bytes = RandomBytes(&rng);
    s.ops.push_back(op);
    if (rng.Bernoulli(0.25)) {
      Op next;
      next.follow_up = true;
      next.a = static_cast<uint32_t>(rng.Uniform(s.nodes));
      next.b = static_cast<uint32_t>(rng.Uniform(s.nodes));
      next.bytes = RandomBytes(&rng);
      s.ops.back().then = static_cast<int>(s.ops.size());
      s.ops.push_back(next);
    }
  }
  return s;
}

/// (op index, completion time in ns), in firing order.
using Fired = std::vector<std::pair<int, uint64_t>>;

/// Schedules every top-level op of `script` on `sim` against `net`, each
/// from its own event, or all from one event at the first op's time when
/// `one_event`. Each completion appends to `fired` and starts the op's
/// follow-up, if any.
template <typename Net>
void Arm(const Script& script, sim::Simulator* sim, Net* net, Fired* fired,
         std::function<void(int)>* start, bool one_event = false) {
  const std::vector<Op>* ops = &script.ops;
  *start = [ops, sim, net, fired, start](int i) {
    const Op& op = (*ops)[i];
    net->Transfer(op.a, op.b, op.bytes, [ops, sim, fired, start, i] {
      fired->emplace_back(i, sim->Now().ns());
      if ((*ops)[i].then >= 0) (*start)((*ops)[i].then);
    });
  };
  const auto play = [ops, net, start](size_t i) {
    const Op& op = (*ops)[i];
    if (op.follow_up) return;
    if (op.throttle) {
      net->SetNodeLinkFactor(op.a, op.factor);
    } else {
      (*start)(static_cast<int>(i));
    }
  };
  if (one_event) {
    sim->ScheduleAt(TimeAt(Micros(ops->front().at_us)), [ops, play] {
      for (size_t i = 0; i < ops->size(); ++i) play(i);
    });
    return;
  }
  for (size_t i = 0; i < ops->size(); ++i) {
    sim->ScheduleAt(TimeAt(Micros((*ops)[i].at_us)), [play, i] { play(i); });
  }
}

/// Runs `script` through the reference model; returns its callbacks and
/// sets `*recomputes` to the water-fills it ran.
Fired RunReference(const Script& script, bool one_event = false,
                   uint64_t* recomputes = nullptr) {
  sim::Simulator sim;
  ReferenceNetwork net(&sim, script.nodes);
  Fired fired;
  std::function<void(int)> start;
  Arm(script, &sim, &net, &fired, &start, one_event);
  sim.Run();
  if (recomputes != nullptr) *recomputes = net.rate_recomputes();
  return fired;
}

/// Checks the max-min conditions on `net`'s current allocation; returns a
/// description of the first violation, or "" if there is none.
std::string MaxMinViolation(const Network& net) {
  const std::vector<Network::FlowRate> flows = net.FlowRates();
  const uint32_t n = net.num_nodes();
  std::vector<double> out_sum(n, 0), in_sum(n, 0), out_max(n, 0),
      in_max(n, 0);
  for (const Network::FlowRate& f : flows) {
    if (!(f.rate > 0)) return "flow with non-positive rate";
    out_sum[f.src] += f.rate;
    in_sum[f.dst] += f.rate;
    out_max[f.src] = std::max(out_max[f.src], f.rate);
    in_max[f.dst] = std::max(in_max[f.dst], f.rate);
  }
  const auto cap = [&](uint32_t node) {
    return Network::kGigabitPayloadBytesPerSec * net.node_link_factor(node);
  };
  constexpr double kTol = 1e-6;
  for (uint32_t node = 0; node < n; ++node) {
    if (out_sum[node] > cap(node) * (1 + kTol) ||
        in_sum[node] > cap(node) * (1 + kTol)) {
      return "node " + std::to_string(node) + " over capacity";
    }
  }
  for (const Network::FlowRate& f : flows) {
    const bool src_bottleneck = out_sum[f.src] >= cap(f.src) * (1 - kTol) &&
                                f.rate >= out_max[f.src] * (1 - kTol);
    const bool dst_bottleneck = in_sum[f.dst] >= cap(f.dst) * (1 - kTol) &&
                                f.rate >= in_max[f.dst] * (1 - kTol);
    if (!src_bottleneck && !dst_bottleneck) {
      return "flow " + std::to_string(f.src) + "->" + std::to_string(f.dst) +
             " has no saturated node on which it is the largest";
    }
  }
  return "";
}

class NetworkOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NetworkOracle, CallbacksMatchReferenceAndAllocationIsMaxMin) {
  const Script script = MakeScript(GetParam());
  const Fired expected = RunReference(script);

  sim::Simulator sim;
  Network net(&sim, script.nodes);
  Fired fired;
  std::function<void(int)> start;
  Arm(script, &sim, &net, &fired, &start);
  // Once no recompute is pending, the rates belong to the current flow set.
  uint64_t audits = 0;
  std::string violation;
  sim.SetPostEventHook([&] {
    if (!violation.empty() || net.recompute_pending()) return;
    ++audits;
    violation = MaxMinViolation(net);
  });
  sim.Run();
  sim.SetPostEventHook(nullptr);

  EXPECT_EQ(violation, "") << "nodes=" << script.nodes;
  EXPECT_GT(audits, 0u);
  ASSERT_EQ(fired.size(), expected.size());
  for (size_t k = 0; k < fired.size(); ++k) {
    ASSERT_EQ(fired[k], expected[k]) << "callback " << k << " of "
                                     << fired.size();
  }
  EXPECT_EQ(net.active_flows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkOracle,
                         ::testing::Range<uint64_t>(1, 33));

TEST(NetworkCoalescing, HundredTransfersFromOneEventCostOneRecompute) {
  Script script;
  script.nodes = 10;
  for (uint32_t i = 0; i < 100; ++i) {
    Op op;
    op.at_us = 1000;
    op.a = i % 10;
    op.b = (op.a + 1 + (i / 10) % 9) % 10;  // never the sender itself
    op.bytes = MiB(1) + 1000 * i;
    script.ops.push_back(op);
  }
  sim::Simulator sim;
  Network net(&sim, script.nodes);
  obs::MetricsRegistry metrics;
  net.AttachObs(nullptr, &metrics);
  Fired fired;
  std::function<void(int)> start;
  Arm(script, &sim, &net, &fired, &start, /*one_event=*/true);

  ASSERT_TRUE(sim.Step());  // the event issuing all 100 transfers
  EXPECT_EQ(net.active_flows(), 100u);
  EXPECT_TRUE(net.recompute_pending());
  EXPECT_EQ(net.rate_recomputes(), 0u);
  ASSERT_TRUE(sim.Step());  // the one recompute they share
  EXPECT_FALSE(net.recompute_pending());
  EXPECT_EQ(net.rate_recomputes(), 1u);
  EXPECT_GT(net.water_fill_rounds(), 0u);
  sim.Run();

  uint64_t reference_recomputes = 0;
  const Fired expected =
      RunReference(script, /*one_event=*/true, &reference_recomputes);
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(fired.size(), 100u);
  EXPECT_GE(reference_recomputes, 100u);  // one per Transfer, at least
  EXPECT_LT(net.rate_recomputes(), reference_recomputes);
  EXPECT_EQ(metrics.GetCounter("net.rate_recomputes")->value(),
            net.rate_recomputes());
  EXPECT_EQ(metrics.GetCounter("net.water_fill_rounds")->value(),
            net.water_fill_rounds());
}

}  // namespace
}  // namespace bdio::net
