// Output correctness outside the timed interval: the repository's
// deterministic count harness (RunDeterministicCount) run at the
// workload's topology, backend and chunk bound, once with a schedule of
// rotating all-at-once migrations and once without. Migration must be
// invisible in the output, so the two digests must be byte-identical.
#include <algorithm>
#include <string>

#include "harness/count_workload.hpp"
#include "harness/launcher.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

megaphone::DetCountResult RunDet(const WorkloadSpec& spec,
                                 const megaphone::DetCountConfig& cfg) {
  return megaphone::RunForked(
      spec.processes, spec.workers, [&](const timely::Config& tcfg) {
        return megaphone::RunDeterministicCount(cfg, tcfg);
      });
}

}  // namespace

std::string DigestCheck(const WorkloadSpec& spec, uint64_t seed,
                        const std::string& state_dir, bool corrupt) {
  using megaphone::DetCountConfig;
  const uint32_t W = spec.total_workers();
  DetCountConfig cfg;
  cfg.total_workers = W;
  cfg.num_bins = spec.bins;
  cfg.domain = std::min<uint64_t>(spec.domain, 1 << 12);
  cfg.records_per_epoch = 4096;
  cfg.epochs = 12;
  cfg.strategy = megaphone::MigrationStrategy::kAllAtOnce;
  cfg.chunk_bytes = kChunkBytes;
  cfg.seed = seed;
  // The harness offers the in-memory map and the spill LogState; a
  // dense-state workload is checked on the map backend.
  if (spec.backend == Backend::kLogPad) {
    cfg.backend = DetCountConfig::Backend::kLog;
    cfg.state_dir = state_dir;
    cfg.spill_memtable_bytes = spec.memtable_bytes;
  }

  DetCountConfig still = cfg;
  still.migrate_at_epoch = cfg.epochs;  // no migration
  for (uint64_t k = 1; k <= 3; ++k) {
    megaphone::Assignment a = megaphone::MakeInitialAssignment(spec.bins, W);
    for (auto& w : a) w = static_cast<uint32_t>((w + k) % W);
    cfg.schedule.emplace_back(3 * k, a);
  }

  megaphone::DetCountResult moved = RunDet(spec, cfg);
  megaphone::DetCountResult base = RunDet(spec, still);
  if (corrupt && !moved.digest.empty()) moved.digest[0] ^= 0x01;

  if (base.digest.empty()) return "empty digest";
  if (moved.records_sent != base.records_sent) {
    return "record counts differ between the runs";
  }
  if (moved.digest != base.digest) {
    return "digest with migrations differs from digest without";
  }
  if (moved.completed_batches != cfg.schedule.size()) {
    return "deterministic run completed " +
           std::to_string(moved.completed_batches) + " of " +
           std::to_string(cfg.schedule.size()) + " migrations";
  }
  return "";
}

}  // namespace perfbench
