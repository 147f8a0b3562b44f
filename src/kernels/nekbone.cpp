// Nekbone (NekB): Nek5000 proxy (Sec. II-B1i) — conjugate gradients for
// the standard Poisson equation discretized by spectral elements. The
// hot loop is the matrix-free local Laplacian: three small dense tensor
// contractions (1-D derivative matrices) per element, giving the high
// FP64:INT ratio of Table IV (410:23).
#include <algorithm>
#include <cmath>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "kernels/kernel_base.hpp"

namespace fpr::kernels {

namespace {

constexpr int kOrder = 10;  // polynomial order + 1 (nodes/dim)
constexpr std::uint64_t kPaperElems = 9216;
constexpr int kPaperIters = 700;

constexpr std::uint64_t kRunElems = 64;
constexpr int kRunIters = 30;
constexpr int kP = kOrder;  // nodes per dimension per element

// Apply the 1-D "derivative" operator along each dimension of a p^3
// element block: w = (D ⊗ I ⊗ I + I ⊗ D ⊗ I + I ⊗ I ⊗ D^T-ish) u.
// D here is a symmetric positive tridiagonal-ish dense matrix so the
// global operator is SPD (sufficient for the CG proxy; real Nekbone uses
// the spectral differentiation matrix with geometric factors).
void element_op(const double* d, const double* u, double* w) {
  // dims: u[i + kP*(j + kP*k)]
  for (int k = 0; k < kP; ++k) {
    for (int j = 0; j < kP; ++j) {
      for (int i = 0; i < kP; ++i) {
        double acc = 0.0;
        // contraction along i
        for (int m = 0; m < kP; ++m) {
          acc += d[i * kP + m] * u[m + kP * (j + kP * k)];
        }
        // contraction along j
        for (int m = 0; m < kP; ++m) {
          acc += d[j * kP + m] * u[i + kP * (m + kP * k)];
        }
        // contraction along k
        for (int m = 0; m < kP; ++m) {
          acc += d[k * kP + m] * u[i + kP * (j + kP * m)];
        }
        w[i + kP * (j + kP * k)] = acc;
      }
    }
  }
}

}  // namespace

WorkloadMeasurement run_nekbone(const KernelInfo& info, ExecutionContext& ctx,
                                const RunConfig& cfg) {
  const std::uint64_t ne = scaled_n(kRunElems, cfg.scale);
  const std::uint64_t npts = ne * kP * kP * kP;

  // SPD 1-D operator: diag dominant symmetric.
  AlignedBuffer<double> d(kP * kP, 0.0);
  for (int i = 0; i < kP; ++i) {
    for (int j = 0; j < kP; ++j) {
      if (i == j) {
        d[i * kP + j] = 2.0;
      } else if (std::abs(i - j) == 1) {
        d[i * kP + j] = -0.9;
      } else {
        d[i * kP + j] = 0.02 / (1.0 + std::abs(i - j));
      }
    }
  }

  AlignedBuffer<double> x(npts, 0.0), b(npts), r(npts), p(npts), ap(npts);
  AlignedBuffer<double> xref(npts);
  for (std::uint64_t i = 0; i < npts; ++i) {
    xref[i] = std::sin(static_cast<double>(i % 97) * 0.1) + 1.5;
  }

  auto apply_A = [&](const double* in, double* out) {
    ctx.parallel_for(
        ne, [&](std::size_t lo, std::size_t hi, unsigned) {
          for (std::size_t e = lo; e < hi; ++e) {
            element_op(d.data(), in + e * kP * kP * kP,
                       out + e * kP * kP * kP);
          }
          const std::uint64_t pts = (hi - lo) * kP * kP * kP;
          counters::add_fp64(pts * (6 * kP + 1));
          counters::add_int(pts * 2);  // dense loops: negligible indexing
          // Three contractions architecturally load 3*kP operands per
          // point - the bandwidth-hungry stream the paper's Fig. 4 shows.
          counters::add_read_bytes(pts * 8 * (3 * kP + 2));
          counters::add_write_bytes(pts * 8);
        });
  };
  auto dot = [&](const double* u, const double* v) {
    double s = 0.0;
    for (std::uint64_t i = 0; i < npts; ++i) s += u[i] * v[i];
    counters::add_fp64(2 * npts);
    counters::add_read_bytes(16 * npts);
    return s;
  };

  const auto rec = assayed(ctx, [&] {
    apply_A(xref.data(), b.data());
    std::copy(b.begin(), b.end(), r.begin());
    std::copy(b.begin(), b.end(), p.begin());
    double rr = dot(r.data(), r.data());
    const double rr0 = rr;
    for (int it = 0; it < kRunIters && rr > 1e-20 * rr0; ++it) {
      apply_A(p.data(), ap.data());
      const double alpha = rr / dot(p.data(), ap.data());
      for (std::uint64_t i = 0; i < npts; ++i) {
        x[i] += alpha * p[i];
        r[i] -= alpha * ap[i];
      }
      counters::add_fp64(4 * npts);
      const double rr_new = dot(r.data(), r.data());
      const double beta = rr_new / rr;
      for (std::uint64_t i = 0; i < npts; ++i) p[i] = r[i] + beta * p[i];
      counters::add_fp64(2 * npts);
      counters::add_read_bytes(48 * npts);
      counters::add_write_bytes(24 * npts);
      rr = rr_new;
    }
  });

  // Per-element operator: x should approach xref elementwise.
  double err = 0.0, norm = 0.0;
  for (std::uint64_t i = 0; i < npts; i += 31) {
    err += (x[i] - xref[i]) * (x[i] - xref[i]);
    norm += xref[i] * xref[i];
  }
  require(info, err / norm < 1e-2, "CG converges to manufactured field");

  const double ops_scale = static_cast<double>(kPaperElems) /
                           static_cast<double>(ne) *
                           static_cast<double>(kPaperIters) / kRunIters;
  const auto paper_ws = static_cast<std::uint64_t>(
      static_cast<double>(kPaperElems) * kP * kP * kP * 8.0 * 6);

  memsim::AccessPatternSpec access;
  memsim::BlockedPattern bp;  // per-element blocks reused p times
  bp.matrix_bytes = paper_ws;
  bp.tile_bytes = kP * kP * kP * 8 * 3;
  bp.tile_reuse = kP;
  access.components.push_back({bp, 1.0});

  KernelTraits traits;
  traits.vec_eff = 0.160;  // calibrated: ~2.5x Table IV achieved rate;
                       // this kernel is memory-bound on BDW (high
                       // MBd in Table IV), so the memory term binds
  traits.int_eff = 0.50;
  traits.phi_vec_penalty = 1.2;   // Table IV: BDW-vs-KNL efficiency ratio
  traits.int_lane_inflation = 1.0;  // SDE lane-granular int counting
  traits.serial_fraction = 0.01;
  traits.latency_dep_fraction = 0.0;

  return finish_measurement(info, rec, ops_scale, paper_ws, access, traits,
                            err / norm);
}

}  // namespace fpr::kernels
