// bdio-blkparse analyzer coverage: binary round trip, corruption handling,
// and the lifecycle replay's latency/sequentiality arithmetic on a
// hand-built trace with known timings.

#include "bdio_blkparse/blkparse.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/units.h"
#include "obs/blktrace.h"
#include "sim/simulator.h"

namespace bdio::blkparse {
namespace {

using obs::BlkAction;

// Two devices, two classes; one clean read lifecycle on each plus a merge
// and a second request on sda, laid out on a known timeline.
void BuildSession(sim::Simulator* sim, obs::BlktraceSession* session) {
  const uint16_t sda = session->RegisterDevice("sda", "hdfs", 0);
  const uint16_t sdb = session->RegisterDevice("sdb", "mr", 0);
  // t=0: request 1 queued on sda (tag 1, job 2), merged +8 sectors.
  session->Record(sda, BlkAction::kQueue, 0, 1000, 8, 1, 1, 2, 1);
  session->Record(sda, BlkAction::kMerge, 0, 1008, 8, 1, 1, 2, 1);
  sim->ScheduleAfter(Millis(1), [=] {
    // t=1ms: dispatched (wait 1 ms); queue drains to depth 0.
    session->Record(sda, BlkAction::kDispatch, 0, 1000, 16, 1, 1, 2, 0);
  });
  sim->ScheduleAfter(Millis(3), [=] {
    // t=3ms: completed (service 2 ms, await 3 ms).
    session->Record(sda, BlkAction::kComplete, 0, 1000, 16, 1, 1, 2, 0);
    // Request 2: a read, sequential with request 1 (starts at its end).
    session->Record(sda, BlkAction::kQueue, 0, 1016, 8, 2, 1, 2, 1);
  });
  sim->ScheduleAfter(Millis(4), [=] {
    session->Record(sda, BlkAction::kDispatch, 0, 1016, 8, 2, 1, 2, 0);
  });
  sim->ScheduleAfter(Millis(5), [=] {
    session->Record(sda, BlkAction::kComplete, 0, 1016, 8, 2, 1, 2, 0);
    // One write lifecycle on the mr device, unattributed.
    session->Record(sdb, BlkAction::kQueue, 1, 64, 32, 1, 0, 0, 1);
  });
  sim->ScheduleAfter(Millis(6), [=] {
    session->Record(sdb, BlkAction::kDispatch, 1, 64, 32, 1, 0, 0, 0);
  });
  sim->ScheduleAfter(Millis(9), [=] {
    session->Record(sdb, BlkAction::kComplete, 1, 64, 32, 1, 0, 0, 0);
  });
  sim->Run();
}

TEST(BlkparseTest, SerializeParseRoundTrip) {
  sim::Simulator sim;
  obs::BlktraceSession session(&sim);
  BuildSession(&sim, &session);

  const Result<BlktraceFile> parsed = ParseBytes(session.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const BlktraceFile direct = FromSession(session);

  ASSERT_EQ(parsed.value().devices.size(), direct.devices.size());
  for (size_t i = 0; i < direct.devices.size(); ++i) {
    const DeviceTrace& a = parsed.value().devices[i];
    const DeviceTrace& b = direct.devices[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.dev_class, b.dev_class);
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.dropped, b.dropped);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (size_t r = 0; r < a.records.size(); ++r) {
      EXPECT_EQ(0, std::memcmp(&a.records[r], &b.records[r],
                               sizeof(obs::BlktraceRecord)));
    }
  }
}

TEST(BlkparseTest, RejectsCorruptArtifacts) {
  EXPECT_FALSE(ParseBytes("").ok());
  EXPECT_FALSE(ParseBytes("NOTBLK!!rest").ok());

  sim::Simulator sim;
  obs::BlktraceSession session(&sim);
  BuildSession(&sim, &session);
  const std::string good = session.Serialize();
  ASSERT_TRUE(ParseBytes(good).ok());

  // Truncation anywhere inside the stream is caught.
  EXPECT_FALSE(ParseBytes(good.substr(0, good.size() - 1)).ok());
  EXPECT_FALSE(ParseBytes(good.substr(0, 10)).ok());
  // Trailing garbage is caught.
  EXPECT_FALSE(ParseBytes(good + "x").ok());
  // A record-size mismatch (future format) is caught, not misparsed.
  std::string resized = good;
  resized[8] = 39;
  EXPECT_FALSE(ParseBytes(resized).ok());
}

TEST(BlkparseTest, AnalyzeComputesLatenciesAndScopes) {
  sim::Simulator sim;
  obs::BlktraceSession session(&sim);
  BuildSession(&sim, &session);
  const Report report = Analyze(FromSession(session));

  EXPECT_EQ(report.num_devices, 2u);
  EXPECT_EQ(report.dropped_records, 0u);
  EXPECT_EQ(report.action_totals[0], 3u);  // Q
  EXPECT_EQ(report.action_totals[1], 1u);  // M
  EXPECT_EQ(report.action_totals[2], 3u);  // D
  EXPECT_EQ(report.action_totals[3], 3u);  // C

  ASSERT_EQ(report.classes.count("hdfs"), 1u);
  const ScopeSummary& hdfs = report.classes.at("hdfs");
  EXPECT_EQ(hdfs.requests, 2u);
  EXPECT_EQ(hdfs.read_requests, 2u);
  EXPECT_EQ(hdfs.bios, 3u);  // 2 Q + 1 M
  EXPECT_EQ(hdfs.merged_bios, 1u);
  EXPECT_EQ(hdfs.sectors, 24u);
  EXPECT_DOUBLE_EQ(hdfs.read_fraction, 1.0);
  EXPECT_DOUBLE_EQ(hdfs.avgrq_sectors, 12.0);
  // Request 1: await 3 ms (Q at 0, C at 3), wait 1 ms, service 2 ms.
  // Request 2: await 2 ms (Q at 3, C at 5), wait 1 ms, service 1 ms.
  EXPECT_DOUBLE_EQ(hdfs.await_ms.mean, 2.5);
  EXPECT_DOUBLE_EQ(hdfs.wait_ms.mean, 1.0);
  EXPECT_DOUBLE_EQ(hdfs.service_ms.mean, 1.5);
  // Request 2 dispatched exactly at request 1's end: sequential.
  EXPECT_EQ(hdfs.dispatches, 2u);
  EXPECT_EQ(hdfs.seq_dispatches, 1u);
  EXPECT_DOUBLE_EQ(hdfs.seq_score, 0.5);
  // One Q-to-Q gap on sda: 3 ms.
  EXPECT_EQ(hdfs.interarrival_ms.count, 1u);
  EXPECT_DOUBLE_EQ(hdfs.interarrival_ms.mean, 3.0);

  const ScopeSummary& mr = report.classes.at("mr");
  EXPECT_EQ(mr.requests, 1u);
  EXPECT_EQ(mr.read_requests, 0u);
  EXPECT_DOUBLE_EQ(mr.await_ms.mean, 4.0);
  EXPECT_DOUBLE_EQ(mr.service_ms.mean, 3.0);
  EXPECT_DOUBLE_EQ(mr.seq_score, 0.0);  // a single dispatch has no previous

  // Tag and job scopes: sda traffic is tag 1 / job 2 (printed as job 1),
  // sdb traffic unattributed.
  ASSERT_EQ(report.tags.count(1u), 1u);
  EXPECT_EQ(report.tags.at(1u).requests, 2u);
  EXPECT_EQ(report.tags.at(1u).merged_bios, 1u);
  ASSERT_EQ(report.tags.count(0u), 1u);
  EXPECT_EQ(report.tags.at(0u).requests, 1u);
  ASSERT_EQ(report.jobs.count(2u), 1u);
  EXPECT_EQ(report.jobs.at(2u).sectors, 24u);
}

TEST(BlkparseTest, OrphanedLifecyclesAfterDropsAreSkipped) {
  // Ring of 2: the Q is overwritten by D and C, leaving orphans.
  sim::Simulator sim;
  obs::BlktraceSession session(&sim, /*max_records_per_device=*/2);
  const uint16_t dev = session.RegisterDevice("sda", "hdfs", 0);
  session.Record(dev, BlkAction::kQueue, 0, 0, 8, 1, 0, 0, 1);
  session.Record(dev, BlkAction::kQueue, 0, 512, 8, 2, 0, 0, 2);
  sim.ScheduleAfter(Millis(1), [&] {
    session.Record(dev, BlkAction::kDispatch, 0, 0, 8, 1, 0, 0, 1);
  });
  sim.ScheduleAfter(Millis(2), [&] {
    session.Record(dev, BlkAction::kComplete, 0, 0, 8, 1, 0, 0, 1);
  });
  sim.Run();

  const Report report = Analyze(FromSession(session));
  EXPECT_EQ(report.dropped_records, 2u);
  const ScopeSummary& hdfs = report.classes.at("hdfs");
  // The completion still counts (C records are self-contained) but no
  // latency can be joined for it.
  EXPECT_EQ(hdfs.requests, 1u);
  EXPECT_EQ(hdfs.await_ms.count, 0u);
  EXPECT_EQ(hdfs.service_ms.count, 0u);
}

TEST(BlkparseTest, SeekPercentilesAreExact) {
  // Ten 8-sector dispatches, each starting where the previous one ended,
  // except for one 1000-sector jump before the sixth: nine seeks, eight of
  // them exactly 0.
  sim::Simulator sim;
  obs::BlktraceSession session(&sim);
  const uint16_t dev = session.RegisterDevice("sda", "hdfs", 0);
  for (uint64_t i = 0; i < 10; ++i) {
    const uint64_t sector = i * 8 + (i >= 5 ? 1000 : 0);
    session.Record(dev, BlkAction::kQueue, 0, sector, 8, i + 1, 0, 0, 1);
    session.Record(dev, BlkAction::kDispatch, 0, sector, 8, i + 1, 0, 0, 0);
    session.Record(dev, BlkAction::kComplete, 0, sector, 8, i + 1, 0, 0, 0);
  }

  const Report report = Analyze(FromSession(session));
  const ScopeSummary& hdfs = report.classes.at("hdfs");
  EXPECT_EQ(hdfs.seq_dispatches, 8u);
  EXPECT_EQ(hdfs.seek_sectors.count, 9u);
  EXPECT_EQ(hdfs.seek_sectors.p50, 0.0);
  EXPECT_EQ(hdfs.seek_sectors.max, 1000.0);
  EXPECT_DOUBLE_EQ(hdfs.seek_sectors.mean, 1000.0 / 9);
}

TEST(BlkparseTest, RendersTextAndSignature) {
  sim::Simulator sim;
  obs::BlktraceSession session(&sim);
  BuildSession(&sim, &session);
  const Report report = Analyze(FromSession(session));

  const std::string text = RenderText(report);
  EXPECT_NE(text.find("device class hdfs:"), std::string::npos);
  EXPECT_NE(text.find("Q=3 M=1 D=3 C=3"), std::string::npos);
  EXPECT_NE(text.find("io tag hdfs-input:"), std::string::npos);
  EXPECT_NE(text.find("job 1:"), std::string::npos);
  EXPECT_NE(text.find("job (unattributed):"), std::string::npos);

  const std::string json = RenderSignatureJson(report);
  EXPECT_NE(json.find("\"schema\":1"), std::string::npos);
  EXPECT_NE(json.find("\"hdfs\":{"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_records\":0"), std::string::npos);
  EXPECT_NE(json.find("\"seq_score\":0.5"), std::string::npos);
}

}  // namespace
}  // namespace bdio::blkparse
