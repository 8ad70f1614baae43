// Scientific control for the XSBench omp exclusion (§4.2.1 / D4).
//
// The shipped omp port reproduces the paper's invalid checksum through
// its thread-enumeration seeding defect. This control shows the OpenMP
// runtime layer itself is NOT the cause: the same lookup kernel run
// through the same omp directive layer, but with the canonical
// loop-index seeding, verifies — isolating the defect to the port's
// seeding, exactly as EXPERIMENTS.md documents.
#include <gtest/gtest.h>

#include "apps/xsbench/xsbench.h"
#include "omp/omp.h"

namespace {

using apps::xsbench::lookup_one;
using apps::xsbench::make_data;
using apps::xsbench::Options;
using apps::xsbench::reference_hash;

std::uint64_t run_omp_fixed_seeding(const apps::xsbench::SimulationData& d,
                                    simt::Device& dev) {
  std::uint64_t h = 0;
  omp::TargetClauses c;
  c.device = &dev;
  c.thread_limit = 256;
  c.name = "xsbench_omp_fixed";
  c.maps = {
      omp::map_to(d.energy.data(), d.energy.size() * sizeof(double)),
      omp::map_to(d.xs.data(), d.xs.size() * sizeof(double)),
      omp::map_to(d.num_nucs.data(), d.num_nucs.size() * sizeof(int)),
      omp::map_to(d.mats.data(), d.mats.size() * sizeof(int)),
      omp::map_to(d.concs.data(), d.concs.size() * sizeof(double)),
      omp::map_tofrom(&h, sizeof(h)),
  };
  const Options opt = d.opt;
  omp::target_teams_distribute_parallel_for(
      c, opt.lookups, [&](omp::DeviceEnv& env) {
        const double* energy = env.translate(d.energy.data());
        const double* xs = env.translate(d.xs.data());
        const int* num_nucs = env.translate(d.num_nucs.data());
        const int* mats = env.translate(d.mats.data());
        const double* concs = env.translate(d.concs.data());
        std::uint64_t* hash = env.translate(&h);
        return [=](std::int64_t i) {
          // The fix: seed by the loop index, as the canonical versions do.
          const int arg = lookup_one(static_cast<std::uint64_t>(i), energy,
                                     xs, num_nucs, mats, concs,
                                     opt.n_gridpoints, opt.max_nucs_per_mat,
                                     opt.n_mats);
          const std::uint64_t contrib =
              apps::mix64(static_cast<std::uint64_t>(i) ^
                          (static_cast<std::uint64_t>(arg) + 1));
          simt::atomic_xor(hash, contrib);
        };
      });
  return h;
}

TEST(XsbenchControl, FixedSeedingVerifiesThroughTheOmpLayer) {
  Options o;
  o.lookups = 4000;
  o.n_gridpoints = 256;
  const auto d = make_data(o);
  const std::uint64_t ref = reference_hash(d);
  for (simt::Device* dev : {&simt::sim_a100(), &simt::sim_mi250()}) {
    EXPECT_EQ(run_omp_fixed_seeding(d, *dev), ref) << dev->config().name;
  }
}

TEST(XsbenchControl, ShippedPortStillFailsAsThePaperReports) {
  Options o;
  o.lookups = 4000;
  o.n_gridpoints = 256;
  const auto r =
      apps::xsbench::run(apps::Version::kOmp, simt::sim_a100(), o);
  EXPECT_FALSE(r.valid);
}

}  // namespace
