// ISSUE 9: the DES determinism race detector and the schedule-perturbation
// harness, validated against each other.
//
//   - Detector semantics: same-tick accesses to one (subsystem, key) from
//     causally unrelated events conflict per the Read/Write/Commute
//     matrix; ancestor chains and cross-tick accesses never do.
//   - Racy fixture: a deliberately order-dependent toy both trips the
//     detector AND flips its digest under schedule perturbation — the
//     two-sided proof that a conflict is exactly the condition under
//     which perturbation can change an outcome.
//   - Digest stability: the real stack (E17 workload shapes, and a
//     crash-revive checkpoint burst) produces the SAME digest under
//     different perturbation seeds — the property the instrumentation
//     pass exists to guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <memory>
#include <string>
#include <vector>

#include "check/race.h"
#include "controller/system.h"
#include "host/initiator.h"
#include "net/fabric.h"
#include "obs/hub.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "util/crc32c.h"
#include "util/units.h"
#include "workload/workload.h"

namespace nlss::check {
namespace {

#if NLSS_INVARIANTS_ENABLED

// Engine + non-aborting detector, pinned to FIFO order so the recorded
// prior/later attribution is reproducible under any NLSS_PERTURB env.
struct DetectorBed {
  sim::Engine engine;
  RaceDetector det;
  DetectorBed() {
    det.set_report_violations(false);
    engine.SetPerturbation(0);
    engine.AttachRaceDetector(&det);
  }
  void At(sim::Tick tick, AccessMode mode, std::uint64_t key = 42) {
    engine.ScheduleAt(tick, [mode, key] {
      RaceDetector::Record(Subsystem::kOther, key, mode, __FILE__, __LINE__);
    });
  }
};

TEST(RaceDetector, UnrelatedSameTickWritesConflict) {
  DetectorBed b;
  b.At(10, AccessMode::kWrite);
  b.At(10, AccessMode::kWrite);
  b.engine.Run();
  ASSERT_EQ(b.det.conflicts().size(), 1u);
  const RaceDetector::Conflict& c = b.det.conflicts()[0];
  EXPECT_EQ(c.subsystem, Subsystem::kOther);
  EXPECT_EQ(c.key, 42u);
  EXPECT_EQ(c.tick, 10u);
  EXPECT_NE(c.prior.event, c.later.event);
}

TEST(RaceDetector, ConflictMatrix) {
  // Read-Read and Commute-Commute are the only safe same-tick pairs.
  const struct {
    AccessMode a,
        b;
    bool conflicts;
  } kCases[] = {
      {AccessMode::kRead, AccessMode::kRead, false},
      {AccessMode::kCommute, AccessMode::kCommute, false},
      {AccessMode::kWrite, AccessMode::kWrite, true},
      {AccessMode::kRead, AccessMode::kWrite, true},
      {AccessMode::kWrite, AccessMode::kRead, true},
      {AccessMode::kRead, AccessMode::kCommute, true},
      {AccessMode::kCommute, AccessMode::kRead, true},
      {AccessMode::kWrite, AccessMode::kCommute, true},
      {AccessMode::kCommute, AccessMode::kWrite, true},
  };
  for (const auto& cs : kCases) {
    DetectorBed b;
    b.At(10, cs.a);
    b.At(10, cs.b);
    b.engine.Run();
    EXPECT_EQ(!b.det.conflicts().empty(), cs.conflicts)
        << AccessModeName(cs.a) << " vs " << AccessModeName(cs.b);
  }
}

TEST(RaceDetector, AncestorChainIsNeverFlagged) {
  DetectorBed b;
  b.engine.ScheduleAt(10, [&b] {
    RaceDetector::Record(Subsystem::kOther, 7, AccessMode::kWrite, __FILE__,
                         __LINE__);
    // Child and grandchild on the SAME tick: causally ordered, so the
    // queue can never run them before their parent.
    b.engine.Schedule(0, [&b] {
      RaceDetector::Record(Subsystem::kOther, 7, AccessMode::kWrite,
                           __FILE__, __LINE__);
      b.engine.Schedule(0, [] {
        RaceDetector::Record(Subsystem::kOther, 7, AccessMode::kWrite,
                             __FILE__, __LINE__);
      });
    });
  });
  b.engine.Run();
  EXPECT_TRUE(b.det.conflicts().empty());
  EXPECT_EQ(b.det.accesses(), 3u);
}

TEST(RaceDetector, SiblingsOfOneParentStillConflict) {
  // Causal ancestry is a chain, not a family: two children of the same
  // parent are NOT ordered against each other.
  DetectorBed b;
  b.engine.ScheduleAt(10, [&b] {
    b.engine.Schedule(0, [] {
      RaceDetector::Record(Subsystem::kOther, 9, AccessMode::kWrite,
                           __FILE__, __LINE__);
    });
    b.engine.Schedule(0, [] {
      RaceDetector::Record(Subsystem::kOther, 9, AccessMode::kWrite,
                           __FILE__, __LINE__);
    });
  });
  b.engine.Run();
  EXPECT_EQ(b.det.conflicts().size(), 1u);
}

TEST(RaceDetector, DifferentTicksAndKeysDoNotConflict) {
  DetectorBed b;
  b.At(10, AccessMode::kWrite, 1);
  b.At(20, AccessMode::kWrite, 1);  // different tick
  b.At(10, AccessMode::kWrite, 2);  // different key
  b.engine.Run();
  EXPECT_TRUE(b.det.conflicts().empty());
}

TEST(RaceDetector, AccessOutsideAnyEventIsIgnored) {
  DetectorBed b;
  // Set-up code between Run() calls: ordered by program text, not by the
  // queue — never race material.
  RaceDetector::Record(Subsystem::kOther, 5, AccessMode::kWrite, __FILE__,
                       __LINE__);
  b.At(10, AccessMode::kWrite, 5);
  b.engine.Run();
  EXPECT_TRUE(b.det.conflicts().empty());
  EXPECT_EQ(b.det.accesses(), 1u);  // only the in-event access counted
}

TEST(RaceDetector, DescribeNamesTheSites) {
  DetectorBed b;
  b.At(10, AccessMode::kWrite);
  b.At(10, AccessMode::kRead);
  b.engine.Run();
  ASSERT_EQ(b.det.conflicts().size(), 1u);
  const std::string d = RaceDetector::Describe(b.det.conflicts()[0]);
  EXPECT_NE(d.find("race_test"), std::string::npos) << d;
  EXPECT_NE(d.find(SubsystemName(Subsystem::kOther)), std::string::npos)
      << d;
}

TEST(RaceDetector, ResetDropsState) {
  DetectorBed b;
  b.At(10, AccessMode::kWrite);
  b.At(10, AccessMode::kWrite);
  b.engine.Run();
  EXPECT_FALSE(b.det.conflicts().empty());
  b.det.Reset();
  EXPECT_TRUE(b.det.conflicts().empty());
  EXPECT_EQ(b.det.accesses(), 0u);
}

#endif  // NLSS_INVARIANTS_ENABLED

// --- The racy fixture: detector and perturbation agree -----------------------

/// Deliberately order-dependent: N unrelated same-tick events each
/// last-writer-win a shared slot, folding every intermediate value into a
/// digest.  FIFO makes any single seed reproducible, but the digest is a
/// function of the same-tick ORDER — exactly what correct code must never
/// be.
std::uint64_t RacyDigest(std::uint64_t perturb_seed) {
  sim::Engine e;
  e.SetPerturbation(perturb_seed);
  int slot = 0;
  std::uint64_t digest = 0;
  for (int i = 1; i <= 8; ++i) {
    e.Schedule(10, [&, i] {
      slot = i;
      digest = digest * 31 + static_cast<std::uint64_t>(slot);
    });
  }
  e.Run();
  return digest;
}

/// The commuting twin: same events, but each one bumps a counter and the
/// digest is taken from the FINAL state only — order-insensitive by
/// construction, so every perturbation seed must agree.
std::uint64_t CommutingDigest(std::uint64_t perturb_seed) {
  sim::Engine e;
  e.SetPerturbation(perturb_seed);
  std::uint64_t counter = 0;
  for (int i = 1; i <= 8; ++i) {
    e.Schedule(10, [&counter, i] { counter += static_cast<std::uint64_t>(i); });
  }
  e.Run();
  return counter;
}

TEST(PerturbationFixture, RacyFixtureFlipsDigestAcrossSeeds) {
  // Same seed, same digest — perturbation never breaks reproducibility.
  EXPECT_EQ(RacyDigest(0), RacyDigest(0));
  EXPECT_EQ(RacyDigest(3), RacyDigest(3));
  // Some seed must expose the order dependence.
  const std::uint64_t fifo = RacyDigest(0);
  bool flipped = false;
  for (std::uint64_t s = 1; s <= 16 && !flipped; ++s) {
    flipped = RacyDigest(s) != fifo;
  }
  EXPECT_TRUE(flipped)
      << "8 same-tick events, 16 seeds: perturbation must reorder them";
}

TEST(PerturbationFixture, CommutingFixtureIsSeedInvariant) {
  const std::uint64_t fifo = CommutingDigest(0);
  for (std::uint64_t s = 1; s <= 16; ++s) {
    EXPECT_EQ(CommutingDigest(s), fifo) << "seed " << s;
  }
}

#if NLSS_INVARIANTS_ENABLED
TEST(PerturbationFixture, DetectorFlagsTheRacyFixtureOnly) {
  // The same two fixtures, tagged: the racy one conflicts (Write/Write),
  // the commuting one is clean (Commute/Commute) — detector verdicts
  // predict the digest behavior above.
  {
    DetectorBed b;
    for (int i = 0; i < 4; ++i) b.At(10, AccessMode::kWrite);
    b.engine.Run();
    EXPECT_FALSE(b.det.conflicts().empty());
  }
  {
    DetectorBed b;
    for (int i = 0; i < 4; ++i) b.At(10, AccessMode::kCommute);
    b.engine.Run();
    EXPECT_TRUE(b.det.conflicts().empty());
  }
}
#endif  // NLSS_INVARIANTS_ENABLED

// --- Digest stability of the real stack across perturbation seeds ------------

struct PerturbBed {
  sim::Engine engine;
  std::unique_ptr<net::Fabric> fabric;
  std::unique_ptr<controller::StorageSystem> system;
  std::unique_ptr<obs::Hub> hub;
  std::vector<std::unique_ptr<host::Initiator>> owners;
  std::vector<host::Initiator*> inits;
  controller::VolumeId vol = 0;

  PerturbBed(std::uint64_t perturb_seed, std::uint32_t hosts,
             std::uint64_t vol_bytes) {
    engine.SetPerturbation(perturb_seed);  // before any event is scheduled
    fabric = std::make_unique<net::Fabric>(engine);
    controller::SystemConfig sc;
    sc.disk_profile.capacity_blocks = 32 * 1024;
    sc.cache.replication = 2;
    system = std::make_unique<controller::StorageSystem>(engine, *fabric, sc);
    hub = std::make_unique<obs::Hub>(engine);
    system->AttachObs(hub.get());
    vol = system->CreateVolume("physics", vol_bytes);
    for (std::uint32_t h = 0; h < hosts; ++h) {
      host::InitiatorConfig hc;
      hc.policy = host::InitiatorConfig::Policy::kRoundRobin;
      hc.seed = 1000 + h;
      owners.push_back(std::make_unique<host::Initiator>(
          *system, "h" + std::to_string(h), hc));
      owners.back()->AttachObs(hub.get());
      inits.push_back(owners.back().get());
    }
  }
};

/// What perturbation must NOT change vs what it legitimately may.
///
/// Same-tick reordering shifts per-op timing: queued resources (disk
/// service, link serialization) serve same-tick arrivals in execution
/// order, and every order of causally unrelated arrivals is a valid
/// serialization.  So `timeline` (the full trace + metrics digest) is only
/// required to be reproducible for a FIXED seed, while `state` — every
/// byte of the volume read back, op outcomes, and the exactly-once
/// counters — must be identical across ALL seeds.  A state divergence
/// means some same-tick pair does not commute: a determinism race.
struct RunDigest {
  std::uint32_t state = 0;
  std::uint32_t timeline = 0;
};

void FoldU64(std::uint32_t& crc, std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  crc = util::Crc32c(crc, std::span<const std::uint8_t>(b, 8));
}

RunDigest FinishAndDigest(PerturbBed& bed, std::uint64_t vol_bytes,
                          const workload::PhaseResult& r) {
  RunDigest d;
  d.timeline = bed.hub->Digest();

  bool flushed = false;
  bed.system->cache().FlushAll([&flushed](bool) { flushed = true; });
  bed.engine.Run();
  EXPECT_TRUE(flushed);

  const std::uint32_t chunk = 256 * util::KiB;
  for (std::uint64_t off = 0; off < vol_bytes; off += chunk) {
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(chunk, vol_bytes - off));
    bool ok = false;
    bed.inits[0]->Read(bed.vol, off, n, [&](bool rd, util::Payload data) {
      ok = rd;
      d.state = util::Crc32c(
          d.state, std::span<const std::uint8_t>(data.data(), data.size()));
    });
    bed.engine.Run();
    EXPECT_TRUE(ok) << "readback at " << off;
  }
  FoldU64(d.state, r.ops);
  FoldU64(d.state, r.ok);
  FoldU64(d.state, r.failed);
  FoldU64(d.state, r.bytes);
  FoldU64(d.state, bed.system->write_dedup().stats().double_applies);
  FoldU64(d.state, bed.system->write_dedup().stats().ghost_writes);
  return d;
}

RunDigest ShapeDigest(workload::Shape shape, std::uint64_t perturb_seed) {
  const workload::FileSet fs{0, 32, 4 * util::KiB};
  workload::Trace trace;
  std::uint64_t vol_bytes = fs.TotalBytes();
  switch (shape) {
    case workload::Shape::kMetadataStorm:
      trace = MetadataStorm(workload::StormSpec{fs, 2, 96}, 5);
      break;
    case workload::Shape::kSmallFileIngest:
      trace = SmallFileIngest(workload::IngestSpec{fs, 2, 96}, 5);
      break;
    case workload::Shape::kSharedLibBroadcast:
      trace = SharedLibBroadcast(workload::BroadcastSpec{fs, 2, 96}, 5);
      break;
    case workload::Shape::kCheckpointBurst: {
      const workload::FileSet ck{0, 2, 128 * util::KiB};
      trace = CheckpointBurst(workload::BurstSpec{ck, 2, 32 * util::KiB}, 5);
      vol_bytes = ck.TotalBytes();
      break;
    }
  }
  PerturbBed bed(perturb_seed, 2, vol_bytes);
  workload::Runner runner(bed.engine, bed.inits, bed.vol, {}, bed.hub.get());
  const workload::PhaseResult r = runner.Play(trace);
  EXPECT_EQ(r.failed, 0u) << workload::ShapeName(shape);
  return FinishAndDigest(bed, vol_bytes, r);
}

TEST(PerturbationDigest, E17ShapesStateIsSeedInvariant) {
  // The tentpole property: with every same-tick contention point either
  // causally chained, commutative, or detector-adjudicated, the end state
  // of a full workload phase must not depend on the same-tick tie-break.
  for (const workload::Shape shape :
       {workload::Shape::kMetadataStorm, workload::Shape::kSmallFileIngest,
        workload::Shape::kSharedLibBroadcast,
        workload::Shape::kCheckpointBurst}) {
    const RunDigest d1 = ShapeDigest(shape, 1);
    const RunDigest d2 = ShapeDigest(shape, 2);
    EXPECT_EQ(d1.state, d2.state)
        << workload::ShapeName(shape)
        << ": end state depends on same-tick order — determinism race";
  }
}

TEST(PerturbationDigest, SameSeedIsFullyReproducible) {
  // A fixed perturbation seed is still a deterministic schedule: even the
  // full timeline digest (traces + latency metrics) must be bit-identical
  // between two runs of the same seed.
  const RunDigest a = ShapeDigest(workload::Shape::kSmallFileIngest, 7);
  const RunDigest b = ShapeDigest(workload::Shape::kSmallFileIngest, 7);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.timeline, b.timeline);
}

RunDigest CrashReviveDigest(std::uint64_t perturb_seed) {
  const workload::FileSet fs{0, 2, 1 * util::MiB};
  PerturbBed bed(perturb_seed, 2, fs.TotalBytes());

  // Fail a blade mid-burst, recover while streams are still running:
  // path-down re-drives, revives, and flush settles are the same-tick
  // heaviest paths in the stack.
  bed.engine.Schedule(5 * util::kNsPerMs,
                      [&bed] { bed.system->FailController(1); });
  bed.engine.Schedule(60 * util::kNsPerMs,
                      [&bed] { bed.system->RecoverCluster(); });

  const workload::Trace trace =
      CheckpointBurst(workload::BurstSpec{fs, 2, 128 * util::KiB}, 13);
  workload::Runner runner(bed.engine, bed.inits, bed.vol, {}, bed.hub.get());
  const workload::PhaseResult r = runner.Play(trace);
  EXPECT_EQ(r.ops, trace.ops.size());
  EXPECT_EQ(bed.system->write_dedup().stats().double_applies, 0u);
  return FinishAndDigest(bed, fs.TotalBytes(), r);
}

TEST(PerturbationDigest, CrashReviveStateIsSeedInvariant) {
  const RunDigest d1 = CrashReviveDigest(1);
  const RunDigest d2 = CrashReviveDigest(2);
  EXPECT_EQ(d1.state, d2.state)
      << "crash-revive end state depends on same-tick order";
}

}  // namespace
}  // namespace nlss::check
