// XSBench (XSBn): Monte-Carlo neutron-transport cross-section lookup
// proxy (Sec. II-B1l) for a Hoogenboom-Martin reactor. The kernel is
// the unionized-energy-grid lookup: binary search + per-nuclide gather +
// linear interpolation. Latency/gather dominated (paper: 93.7% back-end
// bound on KNL, L2 hit rate only 22%).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"
#include "kernels/kernel_base.hpp"

namespace fpr::kernels {

namespace {

constexpr double kPaperLookups = 15e6;
constexpr std::uint64_t kPaperGrid = 11303;  // union grid points
constexpr std::uint64_t kPaperNuclides = 355;

constexpr std::uint64_t kRunLookups = 60000;
constexpr std::uint64_t kRunGrid = 4096;
constexpr std::uint64_t kRunNuclides = 48;
constexpr int kXsChannels = 5;  // total, elastic, absorption, fission, nu-f
constexpr int kAvgNucsPerMat = 12;

}  // namespace

WorkloadMeasurement run_xsbench(const KernelInfo& info, ExecutionContext& ctx,
                                const RunConfig& cfg) {
  const std::uint64_t lookups = scaled_n(kRunLookups, cfg.scale);
  const std::uint64_t grid = kRunGrid;
  const std::uint64_t nuc = kRunNuclides;

  // Unionized energy grid (sorted) and per-nuclide xs tables.
  AlignedBuffer<double> egrid(grid);
  Xoshiro256 init_rng(cfg.seed);
  {
    double e = 1e-5;
    for (std::uint64_t i = 0; i < grid; ++i) {
      e += init_rng.uniform(1e-4, 2e-4);
      egrid[i] = e;
    }
  }
  const double emin = egrid[0], emax = egrid[grid - 1];
  // xs[nuclide][gridpoint][channel]
  AlignedBuffer<double> xs(nuc * grid * kXsChannels);
  for (auto& v : xs) v = init_rng.uniform(0.1, 10.0);
  // Materials: each material is a set of (nuclide, density) pairs.
  constexpr int kMats = 12;
  std::vector<std::vector<std::pair<std::uint32_t, double>>> mats(kMats);
  for (int m = 0; m < kMats; ++m) {
    const int count = 4 + static_cast<int>(init_rng.below(2 * kAvgNucsPerMat -
                                                          8));
    for (int k = 0; k < count; ++k) {
      mats[m].emplace_back(
          static_cast<std::uint32_t>(init_rng.below(nuc)),
          init_rng.uniform(0.01, 1.0));
    }
  }

  SlotReduce checksum(ctx.concurrency());
  const auto rec = assayed(ctx, [&] {
    ctx.parallel_for(
        lookups, [&](std::size_t lo, std::size_t hi, unsigned tid) {
          Xoshiro256 rng(thread_seed(cfg.seed, tid) ^ lo);
          std::uint64_t fp = 0, iops = 0, branches = 0, bytes = 0;
          double local_sum = 0.0;
          for (std::size_t l = lo; l < hi; ++l) {
            const double e = rng.uniform(emin, emax);
            const int m = static_cast<int>(rng.below(kMats));
            iops += 6;
            // Binary search on the union grid (dependent chain).
            std::uint64_t a = 0, b = grid - 1;
            while (b - a > 1) {
              const std::uint64_t mid = (a + b) / 2;
              if (egrid[mid] > e) {
                b = mid;
              } else {
                a = mid;
              }
              iops += 4;
              ++branches;
              bytes += 8;
            }
            const double frac =
                (e - egrid[a]) / (egrid[b] - egrid[a]);
            fp += 3;
            // Macroscopic xs: sum over the material's nuclides of the
            // interpolated micro xs times density, per channel.
            double macro[kXsChannels] = {};
            for (const auto& [nid, dens] : mats[m]) {
              const double* lo_xs =
                  &xs[(nid * grid + a) * kXsChannels];
              const double* hi_xs =
                  &xs[(nid * grid + b) * kXsChannels];
              for (int ch = 0; ch < kXsChannels; ++ch) {
                macro[ch] += dens * (lo_xs[ch] +
                                     frac * (hi_xs[ch] - lo_xs[ch]));
                fp += 4;
              }
              iops += 8;
              bytes += kXsChannels * 16;
            }
            local_sum += macro[0];
            fp += 1;
          }
          counters::add_fp64(fp);
          counters::add_int(iops);
          counters::add_branch(branches);
          counters::add_read_bytes(bytes);
          checksum.add(tid, local_sum);
        });
  });

  const double mean_macro = checksum.sum() / static_cast<double>(lookups);
  // Each macro xs sums ~<count> densities * xs in [0.1, 10]; the mean
  // must land in a statically predictable window.
  require(info, mean_macro > 0.5 && mean_macro < 200.0, "macro xs in range");
  require(info, std::isfinite(mean_macro), "finite checksum");

  const double paper_work =
      kPaperLookups *
      (std::log2(static_cast<double>(kPaperGrid)) + kAvgNucsPerMat * 5);
  const double run_work =
      static_cast<double>(lookups) *
      (std::log2(static_cast<double>(grid)) + kAvgNucsPerMat * 5);
  const double ops_scale = paper_work / run_work;
  // Paper-scale tables: XSBench's "large" H-M unionized grid occupies
  // ~5.6 GB (union grid x per-nuclide pointers + xs data).
  const auto paper_ws = static_cast<std::uint64_t>(5.6e9);

  memsim::AccessPatternSpec access;
  memsim::GatherPattern gp;
  gp.table_bytes = 5600u * 1000 * 1000;
  gp.elem_bytes = 8;
  gp.sequential_fraction = 0.05;
  access.components.push_back({gp, 1.0});

  KernelTraits traits;
  traits.vec_eff = 0.050;  // calibrated: ~2.5x Table IV achieved rate;
                       // this kernel is memory-bound on BDW (high
                       // MBd in Table IV), so the memory term binds
  traits.int_eff = 0.12;
  traits.phi_vec_penalty = 1.0;   // Table IV: BDW-vs-KNL efficiency ratio
  traits.int_lane_inflation = 1.0;  // SDE lane-granular int counting
  traits.serial_fraction = 0.0;
  traits.latency_dep_fraction = 0.30;  // binary-search chains
  traits.phi_scalar_penalty = 1.1;

  return finish_measurement(info, rec, ops_scale, paper_ws, access, traits,
                            mean_macro);
}

}  // namespace fpr::kernels
