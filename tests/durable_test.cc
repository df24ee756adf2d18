// Durability layer unit tests (DESIGN.md §7): WAL append/scan/rotation/
// torn-tail handling, snapshot atomic write + validated load + pruning,
// SstdStreaming state save/load round trips, and RecoveryManager's
// snapshot-then-replay restart sequence.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "durable/recovery.h"
#include "durable/snapshot.h"
#include "durable/wal.h"
#include "sstd/streaming.h"
#include "trace/generator.h"

namespace sstd::durable {
namespace {

namespace fs = std::filesystem;

// Fresh empty directory per test, removed on scope exit.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("sstd_durable_" + tag + "_" +
             std::to_string(::getpid())))
               .string();
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

Report make_report(std::uint32_t source, std::uint32_t claim,
                   TimestampMs time_ms, std::int8_t attitude) {
  Report report;
  report.source = SourceId{source};
  report.claim = ClaimId{claim};
  report.time_ms = time_ms;
  report.attitude = attitude;
  report.uncertainty = 0.25;
  report.independence = 0.75;
  return report;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
}

// --- record + payload codecs -------------------------------------------

TEST(WalCodec, ReportPayloadRoundTrips) {
  const Report original = make_report(7, 42, 123'456, -1);
  const std::string payload = encode_report_payload(original);
  Report decoded;
  ASSERT_TRUE(decode_report_payload(payload, &decoded));
  EXPECT_EQ(decoded.source, original.source);
  EXPECT_EQ(decoded.claim, original.claim);
  EXPECT_EQ(decoded.time_ms, original.time_ms);
  EXPECT_EQ(decoded.attitude, original.attitude);
  EXPECT_DOUBLE_EQ(decoded.uncertainty, original.uncertainty);
  EXPECT_DOUBLE_EQ(decoded.independence, original.independence);
}

TEST(WalCodec, ReportPayloadRejectsTrailingBytes) {
  std::string payload = encode_report_payload(make_report(1, 2, 3, 1));
  payload.push_back('\0');
  Report decoded;
  EXPECT_FALSE(decode_report_payload(payload, &decoded));
}

TEST(WalCodec, IntervalEndPayloadRoundTrips) {
  const std::string payload = encode_interval_end_payload(19);
  IntervalIndex interval = -1;
  ASSERT_TRUE(decode_interval_end_payload(payload, &interval));
  EXPECT_EQ(interval, 19);
}

TEST(WalCodec, RecordFrameRoundTrips) {
  const std::string frame = encode_wal_record(
      static_cast<std::uint16_t>(WalRecordType::kReport), 99, "payload!");
  WalRecord record;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_wal_record(frame, 0, &record, &consumed),
            WalDecodeStatus::kOk);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(record.type, static_cast<std::uint16_t>(WalRecordType::kReport));
  EXPECT_EQ(record.lsn, 99u);
  EXPECT_EQ(record.payload, "payload!");
}

TEST(WalCodec, DecodeAtBufferEndIsTruncated) {
  const std::string frame = encode_wal_record(1, 1, "x");
  WalRecord record;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_wal_record(frame, frame.size(), &record, &consumed),
            WalDecodeStatus::kTruncated);
}

// --- writer + scan ------------------------------------------------------

TEST(WalWriter, AppendedRecordsScanBackInOrder) {
  TempDir dir("scan");
  WalWriter writer;
  writer.open(dir.path);
  for (int i = 0; i < 5; ++i) {
    const auto lsn = writer.append(
        WalRecordType::kReport,
        encode_report_payload(make_report(1, static_cast<std::uint32_t>(i),
                                          1000 * i, 1)));
    EXPECT_EQ(lsn, static_cast<std::uint64_t>(i + 1));
  }
  writer.append(WalRecordType::kIntervalEnd, encode_interval_end_payload(0));
  writer.sync();
  writer.close();

  std::vector<WalRecord> records;
  const WalScanStats stats = wal_scan(
      dir.path, 0, [&records](const WalRecord& r) { records.push_back(r); });
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(stats.records, 6u);
  EXPECT_EQ(stats.max_lsn, 6u);
  EXPECT_EQ(stats.torn_bytes, 0u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, i + 1);
  }
  Report decoded;
  ASSERT_TRUE(decode_report_payload(records[2].payload, &decoded));
  EXPECT_EQ(decoded.claim.value, 2u);
  IntervalIndex interval = -1;
  ASSERT_TRUE(decode_interval_end_payload(records[5].payload, &interval));
  EXPECT_EQ(interval, 0);
}

TEST(WalWriter, ScanAfterLsnSkipsPrefix) {
  TempDir dir("after");
  WalWriter writer;
  writer.open(dir.path);
  for (int i = 0; i < 8; ++i) {
    writer.append(WalRecordType::kReport,
                  encode_report_payload(make_report(1, 1, i, 1)));
  }
  writer.close();

  std::vector<std::uint64_t> lsns;
  wal_scan(dir.path, 5, [&lsns](const WalRecord& r) { lsns.push_back(r.lsn); });
  ASSERT_EQ(lsns.size(), 3u);
  EXPECT_EQ(lsns.front(), 6u);
  EXPECT_EQ(lsns.back(), 8u);
}

TEST(WalWriter, ReopenResumesLsnSequence) {
  TempDir dir("resume");
  {
    WalWriter writer;
    writer.open(dir.path);
    writer.append(WalRecordType::kReport,
                  encode_report_payload(make_report(1, 1, 1, 1)));
    writer.append(WalRecordType::kReport,
                  encode_report_payload(make_report(1, 2, 2, 1)));
  }
  WalWriter writer;
  writer.open(dir.path);
  EXPECT_EQ(writer.next_lsn(), 3u);
  EXPECT_EQ(writer.append(WalRecordType::kReport,
                          encode_report_payload(make_report(1, 3, 3, 1))),
            3u);
  writer.close();

  const WalScanStats stats = wal_scan(dir.path, 0, [](const WalRecord&) {});
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.max_lsn, 3u);
}

TEST(WalWriter, RotatesSegmentsAndScanCrossesThem) {
  TempDir dir("rotate");
  WalOptions options;
  options.segment_bytes = 128;  // tiny: force several rotations
  WalWriter writer;
  writer.open(dir.path, options);
  for (int i = 0; i < 40; ++i) {
    writer.append(WalRecordType::kReport,
                  encode_report_payload(make_report(1, 1, i, 1)));
  }
  writer.close();

  EXPECT_GT(wal_segments(dir.path).size(), 2u);
  const WalScanStats stats = wal_scan(dir.path, 0, [](const WalRecord&) {});
  EXPECT_EQ(stats.records, 40u);
  EXPECT_EQ(stats.max_lsn, 40u);
  EXPECT_EQ(stats.segments, wal_segments(dir.path).size());
  EXPECT_EQ(stats.torn_bytes, 0u);
}

TEST(WalWriter, TornTailIsSkippedByScanAndTruncatedOnReopen) {
  TempDir dir("torn");
  {
    WalWriter writer;
    writer.open(dir.path);
    for (int i = 0; i < 4; ++i) {
      writer.append(WalRecordType::kReport,
                    encode_report_payload(make_report(1, 1, i, 1)));
    }
  }
  // Simulate a crash mid-append: half a frame at the end of the segment.
  const auto segments = wal_segments(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  const std::string frame = encode_wal_record(
      static_cast<std::uint16_t>(WalRecordType::kReport), 5,
      encode_report_payload(make_report(1, 1, 99, 1)));
  const std::string intact = read_file(segments[0]);
  write_file(segments[0], intact + frame.substr(0, frame.size() / 2));

  const WalScanStats torn = wal_scan(dir.path, 0, [](const WalRecord&) {});
  EXPECT_EQ(torn.records, 4u);
  EXPECT_EQ(torn.torn_bytes, frame.size() / 2);

  // Reopen truncates the tail and the next append lands cleanly.
  WalWriter writer;
  writer.open(dir.path);
  EXPECT_EQ(writer.next_lsn(), 5u);
  writer.append(WalRecordType::kReport,
                encode_report_payload(make_report(1, 1, 100, 1)));
  writer.close();
  const WalScanStats after = wal_scan(dir.path, 0, [](const WalRecord&) {});
  EXPECT_EQ(after.records, 5u);
  EXPECT_EQ(after.torn_bytes, 0u);
}

TEST(WalWriter, CorruptRecordStopsScanAfterValidPrefix) {
  TempDir dir("corrupt");
  {
    WalWriter writer;
    writer.open(dir.path);
    for (int i = 0; i < 3; ++i) {
      writer.append(WalRecordType::kReport,
                    encode_report_payload(make_report(1, 1, i, 1)));
    }
  }
  const auto segments = wal_segments(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  std::string data = read_file(segments[0]);
  data.back() ^= 0x01;  // flip a payload bit in the final record
  write_file(segments[0], data);

  const WalScanStats stats = wal_scan(dir.path, 0, [](const WalRecord&) {});
  EXPECT_EQ(stats.records, 2u);  // prefix before the damage still delivered
}

TEST(WalWriter, PurgeRemovesAllSegments) {
  TempDir dir("purge");
  {
    WalWriter writer;
    writer.open(dir.path);
    writer.append(WalRecordType::kReport,
                  encode_report_payload(make_report(1, 1, 1, 1)));
  }
  EXPECT_EQ(wal_segments(dir.path).size(), 1u);
  wal_purge(dir.path);
  EXPECT_TRUE(wal_segments(dir.path).empty());
  EXPECT_EQ(wal_scan(dir.path, 0, [](const WalRecord&) {}).records, 0u);
}

TEST(WalScan, MissingDirectoryScansEmpty) {
  const WalScanStats stats =
      wal_scan("/nonexistent/sstd_wal_dir", 0, [](const WalRecord&) {});
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.segments, 0u);
}

// --- snapshots ----------------------------------------------------------

TEST(Snapshot, WriteThenLoadLatestRoundTrips) {
  TempDir dir("snap");
  SnapshotManager manager;
  manager.open(dir.path);
  const std::vector<std::string> blobs = {"shard zero state",
                                          std::string("\0binary\xff", 8), ""};
  const SnapshotMeta written = manager.write(12, 345, blobs);
  EXPECT_EQ(written.interval, 12);
  EXPECT_EQ(written.lsn, 345u);

  SnapshotMeta meta;
  std::vector<std::string> loaded;
  ASSERT_TRUE(manager.load_latest(&meta, &loaded));
  EXPECT_EQ(meta.interval, 12);
  EXPECT_EQ(meta.lsn, 345u);
  EXPECT_EQ(loaded, blobs);
}

TEST(Snapshot, LoadLatestPrefersNewestAndPrunes) {
  TempDir dir("prune");
  SnapshotManager manager;
  manager.open(dir.path, /*keep_latest=*/2);
  manager.write(5, 50, {"five"});
  manager.write(10, 100, {"ten"});
  manager.write(15, 150, {"fifteen"});

  EXPECT_EQ(snapshot_files(dir.path).size(), 2u);  // oldest pruned
  SnapshotMeta meta;
  std::vector<std::string> blobs;
  ASSERT_TRUE(manager.load_latest(&meta, &blobs));
  EXPECT_EQ(meta.interval, 15);
  ASSERT_EQ(blobs.size(), 1u);
  EXPECT_EQ(blobs[0], "fifteen");
}

TEST(Snapshot, CorruptNewestFallsBackToOlder) {
  TempDir dir("fallback");
  SnapshotManager manager;
  manager.open(dir.path, /*keep_latest=*/4);
  manager.write(1, 10, {"good"});
  manager.write(2, 20, {"bad"});

  const auto files = snapshot_files(dir.path);
  ASSERT_EQ(files.size(), 2u);
  std::string data = read_file(files[0]);  // newest first
  data[data.size() / 2] ^= 0x40;
  write_file(files[0], data);

  SnapshotMeta meta;
  std::vector<std::string> blobs;
  ASSERT_TRUE(manager.load_latest(&meta, &blobs));
  EXPECT_EQ(meta.interval, 1);
  ASSERT_EQ(blobs.size(), 1u);
  EXPECT_EQ(blobs[0], "good");
}

TEST(Snapshot, ReadRejectsBadMagicAndShortFiles) {
  TempDir dir("badsnap");
  const std::string path = dir.path + "/snap-0000000001-000000000001.snap";
  write_file(path, "NOTASNAP_____");
  SnapshotMeta meta;
  std::vector<std::string> blobs;
  EXPECT_FALSE(read_snapshot_file(path, &meta, &blobs));
  write_file(path, "SS");
  EXPECT_FALSE(read_snapshot_file(path, &meta, &blobs));
}

TEST(Snapshot, LoadLatestOnEmptyDirectoryFails) {
  TempDir dir("emptysnap");
  SnapshotManager manager;
  manager.open(dir.path);
  SnapshotMeta meta;
  std::vector<std::string> blobs;
  EXPECT_FALSE(manager.load_latest(&meta, &blobs));
}

// --- engine state round trip -------------------------------------------

trace::ScenarioConfig small_scenario() {
  trace::ScenarioConfig config = trace::tiny(trace::boston_bombing(), 4'000, 6);
  config.seed = 4242;
  return config;
}

TEST(StreamingState, SaveLoadRoundTripContinuesByteExact) {
  trace::TraceGenerator generator(small_scenario());
  const Dataset data = generator.generate();
  SstdConfig config;

  SstdStreaming original(config, data.interval_ms());
  const auto& reports = data.reports();
  std::size_t next = 0;
  const IntervalIndex split = data.intervals() / 2;
  for (IntervalIndex k = 0; k < split; ++k) {
    const TimestampMs end =
        static_cast<TimestampMs>(k + 1) * data.interval_ms();
    while (next < reports.size() && reports[next].time_ms < end) {
      original.offer(reports[next]);
      ++next;
    }
    original.end_interval(k);
  }

  const std::string blob = original.save_state();
  SstdStreaming restored(config, data.interval_ms());
  ASSERT_TRUE(restored.load_state(blob));
  EXPECT_EQ(restored.active_claims(), original.active_claims());
  EXPECT_EQ(restored.refit_count(), original.refit_count());
  // save -> load -> save is the identity (claim-id-ordered image).
  EXPECT_EQ(restored.save_state(), blob);

  // Both engines must stay in lockstep through the rest of the trace.
  for (IntervalIndex k = split; k < data.intervals(); ++k) {
    const TimestampMs end =
        static_cast<TimestampMs>(k + 1) * data.interval_ms();
    while (next < reports.size() && reports[next].time_ms < end) {
      original.offer(reports[next]);
      restored.offer(reports[next]);
      ++next;
    }
    original.end_interval(k);
    restored.end_interval(k);
    for (std::uint32_t u = 0; u < data.num_claims(); ++u) {
      ASSERT_EQ(restored.current_estimate(ClaimId{u}),
                original.current_estimate(ClaimId{u}))
          << "claim " << u << " interval " << k;
    }
  }
  EXPECT_EQ(restored.save_state(), original.save_state());
}

TEST(StreamingState, LoadRejectsGarbageAndConfigMismatch) {
  SstdConfig config;
  SstdStreaming engine(config, 1000);
  EXPECT_FALSE(engine.load_state("not a state blob"));
  EXPECT_FALSE(engine.load_state(""));

  SstdStreaming other(config, 1000);
  other.offer(make_report(1, 1, 10, 1));
  other.end_interval(0);
  const std::string blob = other.save_state();

  SstdStreaming wrong_cadence(config, 2000);  // interval_ms mismatch
  EXPECT_FALSE(wrong_cadence.load_state(blob));

  SstdConfig wrong_bins = config;
  wrong_bins.num_bins = config.num_bins + 2;
  SstdStreaming wrong_engine(wrong_bins, 1000);
  EXPECT_FALSE(wrong_engine.load_state(blob));

  // A failed load leaves the target untouched.
  SstdStreaming target(config, 1000);
  target.offer(make_report(2, 7, 10, -1));
  target.end_interval(0);
  const std::string before = target.save_state();
  EXPECT_FALSE(target.load_state("garbage"));
  EXPECT_EQ(target.save_state(), before);
}

TEST(StreamingState, LoadRejectsVersionOneBlob) {
  // Version 1 images carried three copies of each claim's transition core
  // (model, Viterbi decoder, forward filter). They are not read: the load
  // fails and recovery replays the WAL from the start instead.
  SstdConfig config;
  SstdStreaming source(config, 1000);
  source.offer(make_report(1, 3, 10, 1));
  source.end_interval(0);
  std::string blob = source.save_state();
  ASSERT_FALSE(blob.empty());
  ASSERT_EQ(static_cast<std::uint8_t>(blob[0]), 2u);
  blob[0] = static_cast<char>(1);

  SstdStreaming target(config, 1000);
  target.offer(make_report(2, 7, 10, -1));
  target.end_interval(0);
  const std::string before = target.save_state();
  EXPECT_FALSE(target.load_state(blob));
  EXPECT_EQ(target.save_state(), before);
  EXPECT_EQ(target.active_claims(), 1u);
  EXPECT_EQ(target.current_estimate(ClaimId{3}), kNoEstimate);
}

// --- recovery manager ---------------------------------------------------

RecoveryManager::Callbacks counting_callbacks(int* snapshots,
                                              std::vector<Report>* reports,
                                              std::vector<IntervalIndex>* ends) {
  RecoveryManager::Callbacks callbacks;
  callbacks.load_snapshot = [snapshots](IntervalIndex,
                                        const std::vector<std::string>&) {
    if (snapshots != nullptr) ++*snapshots;
    return true;
  };
  callbacks.on_report = [reports](const Report& r) {
    if (reports != nullptr) reports->push_back(r);
  };
  callbacks.on_interval_end = [ends](IntervalIndex k) {
    if (ends != nullptr) ends->push_back(k);
  };
  return callbacks;
}

TEST(RecoveryManager, BlankDirectoryRecoversToDefaults) {
  TempDir dir("blank");
  const auto result = RecoveryManager::recover(
      dir.path, counting_callbacks(nullptr, nullptr, nullptr));
  EXPECT_FALSE(result.snapshot_loaded);
  EXPECT_EQ(result.replayed_records, 0u);
  EXPECT_EQ(result.next_interval, 0);
  EXPECT_EQ(result.max_lsn, 0u);
}

TEST(RecoveryManager, ReplaysWalPastSnapshotLsn) {
  TempDir dir("replay");
  // Log two full intervals plus one trailing in-flight report, snapshot
  // after the first interval.
  WalWriter writer;
  writer.open(dir.path);
  writer.append(WalRecordType::kReport,
                encode_report_payload(make_report(1, 1, 100, 1)));
  writer.append(WalRecordType::kReport,
                encode_report_payload(make_report(2, 1, 200, -1)));
  const std::uint64_t snap_lsn =
      writer.append(WalRecordType::kIntervalEnd, encode_interval_end_payload(0));
  writer.append(WalRecordType::kReport,
                encode_report_payload(make_report(3, 2, 1100, 1)));
  writer.append(WalRecordType::kIntervalEnd, encode_interval_end_payload(1));
  writer.append(WalRecordType::kReport,
                encode_report_payload(make_report(4, 2, 2100, 1)));
  writer.sync();
  writer.close();

  SnapshotManager snapshots;
  snapshots.open(dir.path);
  snapshots.write(0, snap_lsn, {"blob"});

  int snapshot_loads = 0;
  std::vector<Report> replayed;
  std::vector<IntervalIndex> ends;
  const auto result = RecoveryManager::recover(
      dir.path, counting_callbacks(&snapshot_loads, &replayed, &ends));

  EXPECT_TRUE(result.snapshot_loaded);
  EXPECT_EQ(result.snapshot_interval, 0);
  EXPECT_EQ(result.snapshot_lsn, snap_lsn);
  EXPECT_EQ(snapshot_loads, 1);
  // Only the suffix past the snapshot replays: one interval-1 report, the
  // interval-1 end marker, and the in-flight interval-2 report.
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].claim.value, 2u);
  EXPECT_EQ(replayed[0].time_ms, 1100);
  EXPECT_EQ(replayed[1].time_ms, 2100);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0], 1);
  EXPECT_EQ(result.replayed_records, 3u);
  EXPECT_EQ(result.next_interval, 2);
  EXPECT_EQ(result.max_lsn, 6u);
}

TEST(RecoveryManager, RejectedSnapshotFallsBackToFullReplay) {
  TempDir dir("reject");
  WalWriter writer;
  writer.open(dir.path);
  writer.append(WalRecordType::kReport,
                encode_report_payload(make_report(1, 1, 100, 1)));
  const std::uint64_t lsn =
      writer.append(WalRecordType::kIntervalEnd, encode_interval_end_payload(0));
  writer.close();

  SnapshotManager snapshots;
  snapshots.open(dir.path);
  snapshots.write(0, lsn, {"stale"});

  std::vector<Report> replayed;
  std::vector<IntervalIndex> ends;
  RecoveryManager::Callbacks callbacks =
      counting_callbacks(nullptr, &replayed, &ends);
  callbacks.load_snapshot = [](IntervalIndex,
                               const std::vector<std::string>&) {
    return false;  // engine refuses the blob (e.g. config drift)
  };
  const auto result = RecoveryManager::recover(dir.path, callbacks);

  EXPECT_FALSE(result.snapshot_loaded);
  ASSERT_EQ(replayed.size(), 1u);  // whole log replays from LSN 0
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(result.next_interval, 1);
}

}  // namespace
}  // namespace sstd::durable
