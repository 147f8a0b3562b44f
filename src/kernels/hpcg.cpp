// HPCG: preconditioned conjugate gradients on a 27-point operator with a
// symmetric Gauss-Seidel preconditioner — the paper's memory-subsystem
// reference solver (Sec. II-B3b, global problem 360^3). The dependent
// forward/backward GS sweeps are what make HPCG memory-*latency* bound on
// the Phis (paper Sec. IV-C/IV-E), which the traits encode.
#include <algorithm>
#include <cmath>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/units.hpp"
#include "kernels/kernel_base.hpp"

namespace fpr::kernels {

namespace {

constexpr std::uint64_t kPaperDim = 360;
constexpr int kPaperIters = 50;

constexpr std::uint64_t kRunDim = 40;  // grid edge at scale 1
constexpr int kRunIters = 25;

// 27-point HPCG operator on an nx*ny*nz grid: diagonal 26, off-diagonal
// -1 toward every in-bounds neighbour. Matrix-free row application.
struct Grid {
  std::uint64_t nx, ny, nz;
  [[nodiscard]] std::uint64_t rows() const { return nx * ny * nz; }
  [[nodiscard]] std::uint64_t idx(std::uint64_t x, std::uint64_t y,
                                  std::uint64_t z) const {
    return x + nx * (y + ny * z);
  }
};

// y = A*x over the row range [r0, r1); returns fp-op count.
std::uint64_t spmv_range(const Grid& g, const double* x, double* y,
                         std::uint64_t r0, std::uint64_t r1) {
  std::uint64_t fp = 0;
  for (std::uint64_t r = r0; r < r1; ++r) {
    const std::uint64_t cx = r % g.nx;
    const std::uint64_t cy = (r / g.nx) % g.ny;
    const std::uint64_t cz = r / (g.nx * g.ny);
    double sum = 26.0 * x[r];
    for (int dz = -1; dz <= 1; ++dz) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0 && dz == 0) continue;
          const std::int64_t nxi = static_cast<std::int64_t>(cx) + dx;
          const std::int64_t nyi = static_cast<std::int64_t>(cy) + dy;
          const std::int64_t nzi = static_cast<std::int64_t>(cz) + dz;
          if (nxi < 0 || nyi < 0 || nzi < 0 ||
              nxi >= static_cast<std::int64_t>(g.nx) ||
              nyi >= static_cast<std::int64_t>(g.ny) ||
              nzi >= static_cast<std::int64_t>(g.nz)) {
            continue;
          }
          sum -= x[g.idx(static_cast<std::uint64_t>(nxi),
                         static_cast<std::uint64_t>(nyi),
                         static_cast<std::uint64_t>(nzi))];
          fp += 1;
        }
      }
    }
    y[r] = sum;
    fp += 2;
  }
  return fp;
}

// One symmetric Gauss-Seidel application z = M^-1 r (z starts at 0).
// Sequential in row order — the dependency chain HPCG is designed around.
std::uint64_t symgs(const Grid& g, const double* r, double* z) {
  const std::uint64_t n = g.rows();
  std::fill(z, z + n, 0.0);
  std::uint64_t fp = 0;
  auto sweep_row = [&](std::uint64_t row) {
    const std::uint64_t cx = row % g.nx;
    const std::uint64_t cy = (row / g.nx) % g.ny;
    const std::uint64_t cz = row / (g.nx * g.ny);
    double sum = r[row];
    for (int dz = -1; dz <= 1; ++dz) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0 && dz == 0) continue;
          const std::int64_t nxi = static_cast<std::int64_t>(cx) + dx;
          const std::int64_t nyi = static_cast<std::int64_t>(cy) + dy;
          const std::int64_t nzi = static_cast<std::int64_t>(cz) + dz;
          if (nxi < 0 || nyi < 0 || nzi < 0 ||
              nxi >= static_cast<std::int64_t>(g.nx) ||
              nyi >= static_cast<std::int64_t>(g.ny) ||
              nzi >= static_cast<std::int64_t>(g.nz)) {
            continue;
          }
          sum += z[g.idx(static_cast<std::uint64_t>(nxi),
                         static_cast<std::uint64_t>(nyi),
                         static_cast<std::uint64_t>(nzi))];
          fp += 1;
        }
      }
    }
    z[row] = sum / 26.0;
    fp += 2;
  };
  for (std::uint64_t row = 0; row < n; ++row) sweep_row(row);    // forward
  for (std::uint64_t row = n; row-- > 0;) sweep_row(row);        // backward
  return fp;
}

}  // namespace

WorkloadMeasurement run_hpcg(const KernelInfo& info, ExecutionContext& ctx,
                             const RunConfig& cfg) {
  const std::uint64_t d = scaled_dim(kRunDim, cfg.scale);
  const Grid g{d, d, d};
  const std::uint64_t n = g.rows();

  AlignedBuffer<double> b(n, 1.0), x(n, 0.0), rvec(n), z(n), p(n), ap(n);

  auto dot = [&](const double* u, const double* v) {
    double s = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) s += u[i] * v[i];
    counters::add_fp64(2 * n);
    counters::add_read_bytes(16 * n);
    return s;
  };
  auto par_spmv = [&](const double* in, double* out) {
    ctx.parallel_for(n, [&](std::size_t lo, std::size_t hi, unsigned) {
      const std::uint64_t fp = spmv_range(g, in, out, lo, hi);
      counters::add_fp64(fp);
      counters::add_int(8 * (hi - lo));
      counters::add_read_bytes(27 * 8 * (hi - lo));
      counters::add_write_bytes(8 * (hi - lo));
    });
  };

  double res0 = 0.0, res = 0.0;
  const auto rec = assayed(ctx, [&] {
    // r = b - A*x0 = b.
    std::copy(b.begin(), b.end(), rvec.begin());
    res0 = std::sqrt(dot(rvec.data(), rvec.data()));
    double rtz_old = 0.0;
    for (int it = 0; it < kRunIters; ++it) {
      // Preconditioner (sequential dependent sweeps, as in HPCG).
      const std::uint64_t fp = symgs(g, rvec.data(), z.data());
      counters::add_fp64(fp);
      counters::add_int(16 * n);
      counters::add_read_bytes(2 * 27 * 8 * n);
      counters::add_write_bytes(2 * 8 * n);

      const double rtz = dot(rvec.data(), z.data());
      if (it == 0) {
        std::copy(z.begin(), z.end(), p.begin());
      } else {
        const double beta = rtz / rtz_old;
        for (std::uint64_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
        counters::add_fp64(2 * n);
        counters::add_read_bytes(16 * n);
        counters::add_write_bytes(8 * n);
      }
      rtz_old = rtz;
      par_spmv(p.data(), ap.data());
      const double alpha = rtz / dot(p.data(), ap.data());
      for (std::uint64_t i = 0; i < n; ++i) {
        x[i] += alpha * p[i];
        rvec[i] -= alpha * ap[i];
      }
      counters::add_fp64(4 * n);
      counters::add_read_bytes(32 * n);
      counters::add_write_bytes(16 * n);
    }
    res = std::sqrt(dot(rvec.data(), rvec.data()));
  });

  require(info, res < 0.1 * res0, "CG residual reduced by 10x");
  require(info, std::isfinite(res), "finite residual");

  // Scale to the paper problem: rows ratio x iteration ratio.
  const double rows_ratio =
      static_cast<double>(kPaperDim * kPaperDim * kPaperDim) /
      static_cast<double>(n);
  const double ops_scale =
      rows_ratio * static_cast<double>(kPaperIters) / kRunIters;

  // Paper-scale memory: HPCG stores the matrix explicitly (27 values +
  // 27 indices per row) plus ~6 vectors.
  const auto paper_rows = kPaperDim * kPaperDim * kPaperDim;
  const auto paper_ws =
      static_cast<std::uint64_t>(paper_rows * (27.0 * 12 + 6 * 8));

  memsim::AccessPatternSpec access;
  memsim::StencilPattern st;
  st.nx = kPaperDim;
  st.ny = kPaperDim;
  st.nz = kPaperDim;
  st.elem_bytes = 8;
  st.full_box = true;
  access.components.push_back({st, 0.35});
  memsim::StreamPattern matrix_stream;  // matrix coefficients stream in
  matrix_stream.bytes_per_array = paper_rows * 27 * 12;
  matrix_stream.arrays = 1;
  matrix_stream.writes_per_iter = 0;
  access.components.push_back({matrix_stream, 0.65});

  KernelTraits traits;
  traits.vec_eff = 0.080;  // calibrated: ~2.5x Table IV achieved rate;
                       // this kernel is memory-bound on BDW (high
                       // MBd in Table IV), so the memory term binds
  traits.int_eff = 0.30;
  traits.phi_vec_penalty = 1.3;   // Table IV: BDW-vs-KNL efficiency ratio
  traits.int_lane_inflation = 4.0;  // Phi binary's int flood is vector work
  traits.serial_fraction = 0.02;
  traits.latency_dep_fraction = 0.45;  // dependent GS sweeps
  // Cache-mode tag probes + no speculation across the serial SymGS
  // chain: the Phis pay ~3x the per-miss latency (Sec. IV-C finding).
  traits.phi_latency_penalty = 3.0;
  // Sec. IV-A: Intel's Phi binary issues vastly more integer operations
  // (Table IV: 17.5 Top vs 0.09 Top on BDW).
  traits.phi_adjust.int_ops = 195.0;
  traits.phi_scalar_penalty = 1.3;

  return finish_measurement(info, rec, ops_scale, paper_ws, access, traits,
                            res / res0);
}

}  // namespace fpr::kernels
