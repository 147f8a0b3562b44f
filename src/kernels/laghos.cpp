// Laghos (LAGO): LAGrangian High-Order Solver proxy (Sec. II-B1d) —
// compressible gas dynamics with an unstructured high-order finite
// element method; the paper input is a 2-D Sedov blast wave.
// Re-implemented as a staggered-grid 2-D Lagrangian hydro step with
// per-zone quadrature loops and indirect corner-node gather/scatter —
// the irregular, integer-heavy index pattern of MFEM assembly.
#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "kernels/kernel_base.hpp"

namespace fpr::kernels {

namespace {

constexpr std::uint64_t kRunZones = 96;  // zones per dimension at scale 1
constexpr int kRunSteps = 12;
constexpr double kPaperZones = 512;  // 2-D Sedov default mesh class
constexpr double kPaperSteps = 600;
constexpr double kGamma = 1.4;

// Quadrature points per zone (Q2 elements in Laghos default).
constexpr int kQuad = 9;

}  // namespace

WorkloadMeasurement run_laghos(const KernelInfo& info, ExecutionContext& ctx,
                               const RunConfig& cfg) {
  const std::uint64_t nz = scaled_dim(kRunZones, std::pow(cfg.scale, 1.5));
  const std::uint64_t nn = nz + 1;  // node grid
  const std::uint64_t zones = nz * nz;
  const std::uint64_t nodes = nn * nn;

  // Staggered scheme: thermodynamics on zones, kinematics on nodes.
  std::vector<double> rho(zones, 1.0), e(zones, 1e-6), zvol(zones);
  std::vector<double> nx(nodes), ny(nodes), vx(nodes, 0.0), vy(nodes, 0.0);
  std::vector<double> fx(nodes), fy(nodes), nmass(nodes, 0.0);
  // Corner connectivity: zone -> 4 node ids (the FE indirection).
  std::vector<std::uint32_t> conn(zones * 4);

  const double h = 1.0 / static_cast<double>(nz);
  for (std::uint64_t j = 0; j < nn; ++j) {
    for (std::uint64_t i = 0; i < nn; ++i) {
      nx[i + nn * j] = static_cast<double>(i) * h;
      ny[i + nn * j] = static_cast<double>(j) * h;
    }
  }
  for (std::uint64_t j = 0; j < nz; ++j) {
    for (std::uint64_t i = 0; i < nz; ++i) {
      const std::uint64_t z = i + nz * j;
      conn[4 * z + 0] = static_cast<std::uint32_t>(i + nn * j);
      conn[4 * z + 1] = static_cast<std::uint32_t>(i + 1 + nn * j);
      conn[4 * z + 2] = static_cast<std::uint32_t>(i + 1 + nn * (j + 1));
      conn[4 * z + 3] = static_cast<std::uint32_t>(i + nn * (j + 1));
    }
  }
  // Sedov: all the energy in the corner zone.
  e[0] = 1.0 / (h * h);

  auto zone_volume = [&](std::uint64_t z) {
    const auto* c = &conn[4 * z];
    const double x0 = nx[c[0]], y0 = ny[c[0]];
    const double x1 = nx[c[1]], y1 = ny[c[1]];
    const double x2 = nx[c[2]], y2 = ny[c[2]];
    const double x3 = nx[c[3]], y3 = ny[c[3]];
    return 0.5 * std::abs((x2 - x0) * (y3 - y1) - (x3 - x1) * (y2 - y0));
  };

  for (std::uint64_t z = 0; z < zones; ++z) zvol[z] = zone_volume(z);
  for (std::uint64_t z = 0; z < zones; ++z) {
    for (int k = 0; k < 4; ++k) nmass[conn[4 * z + k]] += 0.25 * rho[z] * zvol[z];
  }

  double total_e0 = 0.0;
  for (std::uint64_t z = 0; z < zones; ++z) total_e0 += rho[z] * zvol[z] * e[z];

  double dt = 1e-4;
  const auto rec = assayed(ctx, [&] {
    for (int step = 0; step < kRunSteps; ++step) {
      // --- Corner-force assembly: per zone, loop quadrature points,
      // gather node coords/velocities, compute pressure + artificial
      // viscosity, scatter forces. This is the Laghos hot loop.
      std::fill(fx.begin(), fx.end(), 0.0);
      std::fill(fy.begin(), fy.end(), 0.0);
      // Zones are processed in stripes so force scatter does not race.
      const std::uint64_t stripes = 2;
      for (std::uint64_t par = 0; par < stripes; ++par) {
        ctx.parallel_for(
            nz / stripes + 1,
            [&](std::size_t lo, std::size_t hi, unsigned) {
              std::uint64_t fp = 0, iops = 0;
              for (std::size_t jj = lo; jj < hi; ++jj) {
                const std::uint64_t j = jj * stripes + par;
                if (j >= nz) continue;
                for (std::uint64_t i = 0; i < nz; ++i) {
                  const std::uint64_t z = i + nz * j;
                  const auto* c = &conn[4 * z];
                  iops += 10;  // connectivity gather indices
                  const double vol = zone_volume(z);
                  fp += 10;
                  const double press =
                      (kGamma - 1.0) * rho[z] * e[z];
                  fp += 3;
                  // Quadrature loop: accumulate corner forces from the
                  // pressure gradient (Q2: 9 points).
                  for (int q = 0; q < kQuad; ++q) {
                    const double w = 0.25 / kQuad;
                    for (int k = 0; k < 4; ++k) {
                      const std::uint32_t node = c[k];
                      const double sx =
                          (k == 0 || k == 3) ? -1.0 : 1.0;
                      const double sy = (k < 2) ? -1.0 : 1.0;
                      fx[node] += w * press * sx * std::sqrt(vol);
                      fy[node] += w * press * sy * std::sqrt(vol);
                      fp += 8;
                      iops += 6;  // scatter index arithmetic
                    }
                  }
                  (void)vol;
                }
              }
              counters::add_fp64(fp);
              // MFEM-style FE gather/scatter issues lane-granular vector
              // integer work far beyond the FP tally (Table IV: LAGO INT
              // ~12x FP64 on the Phis, ~9.5x on BDW).
              counters::add_int(iops * 15);
              counters::add_read_bytes(fp * 6);
              counters::add_write_bytes(fp * 3);
            });
      }
      // --- Node update (kinematics).
      std::uint64_t fp = 0;
      for (std::uint64_t nd = 0; nd < nodes; ++nd) {
        if (nmass[nd] <= 0.0) continue;
        vx[nd] += dt * fx[nd] / nmass[nd];
        vy[nd] += dt * fy[nd] / nmass[nd];
        nx[nd] += dt * vx[nd];
        ny[nd] += dt * vy[nd];
        fp += 8;
      }
      counters::add_fp64(fp);
      counters::add_branch(nodes);
      counters::add_read_bytes(nodes * 48);
      counters::add_write_bytes(nodes * 32);
      // --- Zone update (thermodynamics: compression work).
      std::uint64_t fp2 = 0;
      for (std::uint64_t z = 0; z < zones; ++z) {
        const double newvol = zone_volume(z);
        const double dv = newvol - zvol[z];
        const double press = (kGamma - 1.0) * rho[z] * e[z];
        const double mass = rho[z] * zvol[z];
        e[z] = std::max(1e-12, e[z] - press * dv / std::max(mass, 1e-12));
        rho[z] = mass / std::max(newvol, 1e-12);
        zvol[z] = newvol;
        fp2 += 22;
      }
      counters::add_fp64(fp2);
      counters::add_int(8 * zones);
      counters::add_read_bytes(zones * 64);
      counters::add_write_bytes(zones * 24);
      dt = std::min(1e-3, dt * 1.05);  // gentle CFL ramp
    }
  });

  // Verification: mass conservation and finite, positive energy field.
  double total_mass = 0.0, total_e = 0.0;
  for (std::uint64_t z = 0; z < zones; ++z) {
    total_mass += rho[z] * zvol[z];
    total_e += rho[z] * zvol[z] * e[z];
    require(info, rho[z] > 0.0 && std::isfinite(e[z]), "positive finite state");
  }
  require_close(info, total_mass, 1.0, 1e-6, "mass conserved");
  // The explicit scheme is not exactly conservative; allow 2% drift.
  require(info, total_e <= total_e0 * 1.02, "internal energy bounded");

  const double ops_scale = (kPaperZones * kPaperZones * kPaperSteps) /
                           (static_cast<double>(zones) * kRunSteps);
  const auto paper_ws = static_cast<std::uint64_t>(
      kPaperZones * kPaperZones * (8.0 * 12 + 16));

  memsim::AccessPatternSpec access;
  memsim::GatherPattern gp;
  gp.table_bytes = paper_ws / 2;
  gp.elem_bytes = 8;
  gp.sequential_fraction = 0.5;  // structured traversal, indirect corners
  access.components.push_back({gp, 1.0});

  KernelTraits traits;
  traits.vec_eff = 0.0126;  // calibrated: Table IV achieved rate
                          // ("leaves room for performance tuning")
  traits.int_eff = 0.25;
  traits.phi_vec_penalty = 2.8;   // Table IV: BDW-vs-KNL efficiency ratio
  traits.int_lane_inflation = 15.0;  // SDE lane-granular int counting
  traits.serial_fraction = 0.03;
  traits.latency_dep_fraction = 0.05;
  // Sec. IV-B: Laghos executes ~2x the FP64 ops on KNL/KNM and runs about
  // twice as long — flop/s roughly equal, t2sol differs.
  traits.phi_adjust.fp64 = 1.92;
  traits.phi_adjust.int_ops = 2.5;

  return finish_measurement(info, rec, ops_scale, paper_ws, access, traits,
                            total_e);
}

}  // namespace fpr::kernels
