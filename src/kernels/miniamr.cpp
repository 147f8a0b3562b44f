// MiniAMR (MAMR): adaptive-mesh-refinement proxy (Mantevo, Sec. II-B1f).
// A 7-point stencil applied over an octree of blocks while a sphere moves
// diagonally through the domain, triggering refinement and coarsening —
// the block-management bookkeeping is the integer-heavy part.
#include <algorithm>
#include <cmath>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "kernels/kernel_base.hpp"

namespace fpr::kernels {

namespace {

constexpr std::uint64_t kBlockDim = 8;      // cells per block edge
constexpr std::uint64_t kRunRoot = 4;       // root blocks per dimension
constexpr int kRunSteps = 10;
constexpr int kMaxLevel = 2;

constexpr double kPaperSteps = 10;
// miniAMR's default region is far larger than its per-step sweep:
// ~120k active blocks of 8^3 cells (~1 GB of field data).
constexpr double kPaperBlocks = 120000;

struct Block {
  double cx, cy, cz;  // center in [0,1]^3
  int level;
  AlignedBuffer<double> cells;

  Block(double x, double y, double z, int lvl)
      : cx(x), cy(y), cz(z), level(lvl),
        cells(kBlockDim * kBlockDim * kBlockDim, 1.0) {}
};

}  // namespace

WorkloadMeasurement run_miniamr(const KernelInfo& info, ExecutionContext& ctx,
                                const RunConfig& cfg) {
  const std::uint64_t root = scaled_dim(kRunRoot, cfg.scale);

  std::vector<Block> blocks;
  const double rh = 1.0 / static_cast<double>(root);
  for (std::uint64_t z = 0; z < root; ++z) {
    for (std::uint64_t y = 0; y < root; ++y) {
      for (std::uint64_t x = 0; x < root; ++x) {
        blocks.emplace_back((static_cast<double>(x) + 0.5) * rh,
                            (static_cast<double>(y) + 0.5) * rh,
                            (static_cast<double>(z) + 0.5) * rh, 0);
      }
    }
  }

  std::uint64_t refinements = 0, coarsenings = 0;
  double field_sum = 0.0;

  const auto rec = assayed(ctx, [&] {
    for (int step = 0; step < kRunSteps; ++step) {
      // The moving sphere (diagonal trajectory).
      const double t = static_cast<double>(step) / kRunSteps;
      const double sx = 0.2 + 0.6 * t, sy = sx, sz = sx;
      const double radius = 0.18;

      // --- Refinement pass: blocks near the sphere surface split; far
      // blocks at level > 0 coarsen. Integer-dominated tree bookkeeping.
      std::vector<Block> next;
      next.reserve(blocks.size());
      std::uint64_t iops = 0;
      for (auto& b : blocks) {
        const double d = std::sqrt((b.cx - sx) * (b.cx - sx) +
                                   (b.cy - sy) * (b.cy - sy) +
                                   (b.cz - sz) * (b.cz - sz));
        counters::add_fp64(9);
        iops += 24;  // tree/neighbour bookkeeping per visited block
        const bool near = std::abs(d - radius) <
                          0.35 / static_cast<double>(root) /
                              static_cast<double>(1 << b.level);
        counters::add_branch(2);
        if (near && b.level < kMaxLevel) {
          // Split into 8 children.
          const double off = 0.25 * rh / static_cast<double>(1 << b.level);
          for (int oz = -1; oz <= 1; oz += 2) {
            for (int oy = -1; oy <= 1; oy += 2) {
              for (int ox = -1; ox <= 1; ox += 2) {
                next.emplace_back(b.cx + ox * off, b.cy + oy * off,
                                  b.cz + oz * off, b.level + 1);
              }
            }
          }
          iops += 8 * 16;
          ++refinements;
        } else if (!near && b.level > 0 && (step % 2 == 0)) {
          // Coarsen: keep one representative block per sibling octet;
          // approximate by dropping to the parent center.
          b.level -= 1;
          next.push_back(std::move(b));
          ++coarsenings;
          iops += 32;
        } else {
          next.push_back(std::move(b));
        }
      }
      counters::add_int(iops);
      blocks.swap(next);

      // --- 7-point stencil sweep over all active blocks.
      ctx.parallel_for(
          blocks.size(),
          [&](std::size_t lo, std::size_t hi, unsigned) {
            std::uint64_t fp = 0, ii = 0;
            constexpr std::uint64_t d = kBlockDim;
            AlignedBuffer<double> tmp(d * d * d);
            for (std::size_t bi = lo; bi < hi; ++bi) {
              auto& c = blocks[bi].cells;
              for (std::uint64_t z = 0; z < d; ++z) {
                for (std::uint64_t y = 0; y < d; ++y) {
                  for (std::uint64_t x = 0; x < d; ++x) {
                    const auto at = [&](std::uint64_t xx, std::uint64_t yy,
                                        std::uint64_t zz) {
                      return c[xx + d * (yy + d * zz)];
                    };
                    const double center = at(x, y, z);
                    double acc = center;
                    acc += (x > 0 ? at(x - 1, y, z) : center);
                    acc += (x + 1 < d ? at(x + 1, y, z) : center);
                    acc += (y > 0 ? at(x, y - 1, z) : center);
                    acc += (y + 1 < d ? at(x, y + 1, z) : center);
                    acc += (z > 0 ? at(x, y, z - 1) : center);
                    acc += (z + 1 < d ? at(x, y, z + 1) : center);
                    tmp[x + d * (y + d * z)] = acc / 7.0;
                    fp += 8;
                    ii += 20;  // ghost/boundary index logic per cell
                  }
                }
              }
              std::copy(tmp.begin(), tmp.end(), c.begin());
            }
            counters::add_fp64(fp);
            counters::add_int(ii);
            counters::add_branch((hi - lo) * d * d * d);
            counters::add_read_bytes(fp * 8);
            counters::add_write_bytes(fp);
          });
    }
    for (const auto& b : blocks) {
      for (const double v : b.cells) field_sum += v;
    }
  });

  require(info, refinements > 0, "refinement occurred");
  require(info, std::isfinite(field_sum), "finite field");
  // The smoothing stencil preserves each block's mean at the interior;
  // values stay within the initial bounds.
  for (const auto& b : blocks) {
    for (const double v : b.cells) {
      require(info, v > 0.0 && v <= 1.0 + 1e-9, "stencil stays in bounds");
    }
  }

  // Anchored on Table IV's 40.8 Gop FP64 (BDW; the Phi runs execute
  // ~7x more, encoded in phi_adjust): the original's refinement
  // cadence is not derivable from the input description.
  const double ops_scale =
      4.08e10 / std::max(1.0, static_cast<double>(rec.ops().fp64));
  const auto paper_ws = static_cast<std::uint64_t>(
      kPaperBlocks * kBlockDim * kBlockDim * kBlockDim * 8.0 * 2);

  memsim::AccessPatternSpec access;
  memsim::StencilPattern st{.nx = 256, .ny = 256, .nz = 256,
                            .elem_bytes = 8, .radius = 1, .full_box = false};
  access.components.push_back({st, 0.8});
  memsim::ChasePattern tree;
  tree.footprint_bytes = static_cast<std::uint64_t>(kPaperBlocks * 256);
  tree.node_bytes = 64;
  access.components.push_back({tree, 0.2});

  KernelTraits traits;
  traits.vec_eff = 0.030;  // calibrated: ~2.5x Table IV achieved rate;
                       // this kernel is memory-bound on BDW (high
                       // MBd in Table IV), so the memory term binds
  traits.int_eff = 0.05;
  traits.phi_vec_penalty = 1.5;   // Table IV: BDW-vs-KNL efficiency ratio
  traits.int_lane_inflation = 4.0;  // SDE lane-granular int counting
  traits.serial_fraction = 0.05;  // tree management
  traits.latency_dep_fraction = 0.08;
  // Sec. III-A/IV-B: no strong-scaling input exists; the paper ran
  // different decompositions on BDW (Table IV: 40.8 vs 291.5 GFP64).
  traits.phi_adjust.fp64 = 7.14;
  traits.phi_adjust.int_ops = 19.5;

  return finish_measurement(info, rec, ops_scale, paper_ws, access, traits,
                            field_sum);
}

}  // namespace fpr::kernels
