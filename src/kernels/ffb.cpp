// FrontFlow/blue (FFB): FEM incompressible Navier-Stokes thermo-fluid
// solver (RIKEN Fiber suite, Sec. II-B2a). Paper input: 3-D cavity flow
// in a 50x50x50-cube discretization. FFB computes in single precision —
// it is one of the few FP32-dominant proxies in Fig. 1 — with heavy
// integer indexing from the FE indirection (Table IV: 1786 Gop INT vs
// 259 Gop FP32).
#include <algorithm>
#include <cmath>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "kernels/kernel_base.hpp"

namespace fpr::kernels {

namespace {

// 50x50x50 cubes of quadratic elements ~ 101^3 FE nodes.
constexpr std::uint64_t kPaperDim = 101;
constexpr int kPaperSteps = 900;

constexpr std::uint64_t kRunDim = 28;
constexpr int kRunSteps = 6;
constexpr int kPressureIters = 20;
constexpr float kDt = 0.02f;
constexpr float kNu = 0.05f;  // viscosity

}  // namespace

WorkloadMeasurement run_ffb(const KernelInfo& info, ExecutionContext& ctx,
                            const RunConfig& cfg) {
  const std::uint64_t d = scaled_dim(kRunDim, cfg.scale);
  const std::uint64_t n = d * d * d;

  // Collocated fractional-step scheme in FP32 (as FFB computes), with
  // FP64 only for global reductions — matching the Fig. 1 mix.
  AlignedBuffer<float> u(n, 0.0f), v(n, 0.0f), w(n, 0.0f);
  AlignedBuffer<float> un(n), vn(n), wn(n), p(n, 0.0f), div(n), pn(n);
  const float h = 1.0f / static_cast<float>(d);

  auto id = [&](std::uint64_t x, std::uint64_t y, std::uint64_t z) {
    return x + d * (y + d * z);
  };

  // Lid-driven cavity: u = 1 on the top plane.
  auto apply_bc = [&] {
    for (std::uint64_t y = 0; y < d; ++y) {
      for (std::uint64_t x = 0; x < d; ++x) {
        u[id(x, y, d - 1)] = 1.0f;
        v[id(x, y, d - 1)] = 0.0f;
        w[id(x, y, d - 1)] = 0.0f;
      }
    }
  };
  apply_bc();

  double final_div = 0.0, initial_ke = 0.0, final_ke = 0.0;
  const auto rec = assayed(ctx, [&] {
    for (int step = 0; step < kRunSteps; ++step) {
      // --- Advection-diffusion (explicit upwind + central diffusion).
      ctx.parallel_for(
          d - 2, [&](std::size_t lo, std::size_t hi, unsigned) {
            std::uint64_t sp = 0, iops = 0;
            for (std::size_t zz = lo; zz < hi; ++zz) {
              const std::uint64_t z = zz + 1;
              for (std::uint64_t y = 1; y < d - 1; ++y) {
                for (std::uint64_t x = 1; x < d - 1; ++x) {
                  const std::uint64_t c = id(x, y, z);
                  // FE-style indirection: neighbour ids via element
                  // connectivity (counted as the integer component).
                  const std::uint64_t xm = id(x - 1, y, z),
                                      xp = id(x + 1, y, z),
                                      ym = id(x, y - 1, z),
                                      yp = id(x, y + 1, z),
                                      zm = id(x, y, z - 1),
                                      zp = id(x, y, z + 1);
                  iops += 24;
                  auto upd = [&](const AlignedBuffer<float>& f,
                                 AlignedBuffer<float>& fn) {
                    const float fc = f[c];
                    const float adv =
                        (u[c] > 0 ? u[c] * (fc - f[xm])
                                  : u[c] * (f[xp] - fc)) +
                        (v[c] > 0 ? v[c] * (fc - f[ym])
                                  : v[c] * (f[yp] - fc)) +
                        (w[c] > 0 ? w[c] * (fc - f[zm])
                                  : w[c] * (f[zp] - fc));
                    const float lap = f[xm] + f[xp] + f[ym] + f[yp] +
                                      f[zm] + f[zp] - 6.0f * fc;
                    fn[c] = fc + kDt * (-adv / h + kNu * lap / (h * h));
                    sp += 24;
                    iops += 30;  // gather/scatter address arithmetic
                  };
                  upd(u, un);
                  upd(v, vn);
                  upd(w, wn);
                }
              }
            }
            counters::add_fp32(sp);
            // FE indirection at lane granularity (Table IV: FFB INT
            // ~6.9x FP32).
            counters::add_int(iops * 4);
            counters::add_branch(sp / 8);
            counters::add_read_bytes(sp * 3);
            counters::add_write_bytes(sp / 2);
          });
      std::swap(u, un);
      std::swap(v, vn);
      std::swap(w, wn);
      apply_bc();

      // --- Divergence.
      ctx.parallel_for(
          d - 2, [&](std::size_t lo, std::size_t hi, unsigned) {
            std::uint64_t sp = 0;
            for (std::size_t zz = lo; zz < hi; ++zz) {
              const std::uint64_t z = zz + 1;
              for (std::uint64_t y = 1; y < d - 1; ++y) {
                for (std::uint64_t x = 1; x < d - 1; ++x) {
                  div[id(x, y, z)] =
                      (u[id(x + 1, y, z)] - u[id(x - 1, y, z)] +
                       v[id(x, y + 1, z)] - v[id(x, y - 1, z)] +
                       w[id(x, y, z + 1)] - w[id(x, y, z - 1)]) /
                      (2.0f * h);
                  sp += 8;
                }
              }
            }
            counters::add_fp32(sp);
            counters::add_int(sp * 3);
            counters::add_read_bytes(sp * 3);
            counters::add_write_bytes(sp / 2);
          });

      // --- Pressure Poisson (Jacobi, FP32).
      for (int pit = 0; pit < kPressureIters; ++pit) {
        ctx.parallel_for(
            d - 2, [&](std::size_t lo, std::size_t hi, unsigned) {
              std::uint64_t sp = 0, iops = 0;
              for (std::size_t zz = lo; zz < hi; ++zz) {
                const std::uint64_t z = zz + 1;
                for (std::uint64_t y = 1; y < d - 1; ++y) {
                  for (std::uint64_t x = 1; x < d - 1; ++x) {
                    pn[id(x, y, z)] =
                        (p[id(x - 1, y, z)] + p[id(x + 1, y, z)] +
                         p[id(x, y - 1, z)] + p[id(x, y + 1, z)] +
                         p[id(x, y, z - 1)] + p[id(x, y, z + 1)] -
                         div[id(x, y, z)] * h * h / kDt) /
                        6.0f;
                    sp += 9;
                    iops += 26;  // FE connectivity per gather
                  }
                }
              }
              counters::add_fp32(sp);
              counters::add_int(iops * 4);
              counters::add_read_bytes(sp * 3);
              counters::add_write_bytes(sp / 2);
            });
        std::swap(p, pn);
      }

      // --- Projection.
      ctx.parallel_for(
          d - 2, [&](std::size_t lo, std::size_t hi, unsigned) {
            std::uint64_t sp = 0;
            for (std::size_t zz = lo; zz < hi; ++zz) {
              const std::uint64_t z = zz + 1;
              for (std::uint64_t y = 1; y < d - 1; ++y) {
                for (std::uint64_t x = 1; x < d - 1; ++x) {
                  const std::uint64_t c = id(x, y, z);
                  u[c] -= kDt * (p[id(x + 1, y, z)] - p[id(x - 1, y, z)]) /
                          (2.0f * h);
                  v[c] -= kDt * (p[id(x, y + 1, z)] - p[id(x, y - 1, z)]) /
                          (2.0f * h);
                  w[c] -= kDt * (p[id(x, y, z + 1)] - p[id(x, y, z - 1)]) /
                          (2.0f * h);
                  sp += 15;
                }
              }
            }
            counters::add_fp32(sp);
            counters::add_int(sp * 2);
            counters::add_read_bytes(sp * 3);
            counters::add_write_bytes(sp / 2);
          });
      apply_bc();
    }
    // FP64 reductions (the small double share FFB shows in Fig. 1).
    double ke = 0.0, dv = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
      ke += 0.5 * (static_cast<double>(u[i]) * u[i] +
                   static_cast<double>(v[i]) * v[i] +
                   static_cast<double>(w[i]) * w[i]);
      dv += std::abs(static_cast<double>(div[i]));
    }
    counters::add_fp64(9 * n);
    final_ke = ke;
    final_div = dv / static_cast<double>(n);
    initial_ke = 0.0;
  });
  (void)initial_ke;

  require(info, std::isfinite(final_ke) && final_ke > 0.0, "flow developed");
  // Velocity stays bounded by the lid speed (stability check).
  float umax = 0.0f;
  for (std::uint64_t i = 0; i < n; ++i) {
    umax = std::max(umax, std::abs(u[i]));
  }
  require(info, umax <= 1.5f, "velocity bounded (stable scheme)");
  require(info, final_div < 10.0, "divergence under control");

  const double paper_cells = static_cast<double>(kPaperDim) * kPaperDim *
                             kPaperDim;
  const double ops_scale = paper_cells / static_cast<double>(n) *
                           static_cast<double>(kPaperSteps) / kRunSteps;
  // Fields + FEM connectivity + element matrices: ~3.5x the raw
  // field storage (FFB is not cache-resident; Table IV LLh is 33%).
  const auto paper_ws =
      static_cast<std::uint64_t>(paper_cells * 4.0 * 10 * 3.5);

  memsim::AccessPatternSpec access;
  memsim::StencilPattern st{.nx = kPaperDim, .ny = kPaperDim,
                            .nz = kPaperDim, .elem_bytes = 4, .radius = 1,
                            .full_box = false};
  access.components.push_back({st, 1.0});

  KernelTraits traits;
  traits.vec_eff = 0.034;  // calibrated: Table IV achieved rate
  traits.int_eff = 0.35;
  traits.phi_vec_penalty = 4.5;   // Table IV: BDW-vs-KNL efficiency ratio
  traits.int_lane_inflation = 4.0;  // SDE lane-granular int counting
  traits.serial_fraction = 0.02;
  traits.latency_dep_fraction = 0.02;

  return finish_measurement(info, rec, ops_scale, paper_ws, access, traits,
                            final_ke);
}

}  // namespace fpr::kernels
