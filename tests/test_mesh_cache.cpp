// MeshSolveCache: keying, hit/miss accounting, identity of shared
// operators and pattern bundles, concurrent assembly outside the cache
// mutex, and equivalence with per-call assembly (the property the sweep
// engine's bit-identical guarantee rests on).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "vpd/common/error.hpp"

#include "vpd/package/irdrop.hpp"
#include "vpd/package/mesh_cache.hpp"

namespace vpd {
namespace {

using vpd::literals::operator""_mm;
using vpd::literals::operator""_V;

TEST(MeshSolveCache, HitsShareOneAssembly) {
  MeshSolveCache cache;
  const auto a = cache.get(10.0_mm, 10.0_mm, 11, 11, 2e-3);
  const auto b = cache.get(10.0_mm, 10.0_mm, 11, 11, 2e-3);
  EXPECT_EQ(a.get(), b.get());  // same immutable object
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(MeshSolveCache, DistinctKeysAssembleSeparately) {
  MeshSolveCache cache;
  const auto base = cache.get(10.0_mm, 10.0_mm, 11, 11, 2e-3);
  EXPECT_NE(base.get(), cache.get(10.0_mm, 10.0_mm, 11, 11, 4e-3).get());
  EXPECT_NE(base.get(), cache.get(10.0_mm, 10.0_mm, 21, 11, 2e-3).get());
  EXPECT_NE(base.get(), cache.get(12.0_mm, 10.0_mm, 11, 11, 2e-3).get());
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 0u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(MeshSolveCache, CachedAssemblyMatchesDirectAssembly) {
  MeshSolveCache cache;
  const auto cached = cache.get(22.36_mm, 22.36_mm, 21, 21, 2e-3);
  const auto direct = assemble_mesh(22.36_mm, 22.36_mm, 21, 21, 2e-3);
  ASSERT_EQ(cached->laplacian.nonzero_count(),
            direct->laplacian.nonzero_count());
  EXPECT_EQ(cached->laplacian.values(), direct->laplacian.values());
  EXPECT_EQ(cached->laplacian.col_indices(), direct->laplacian.col_indices());
}

TEST(MeshSolveCache, AssemblyCarriesTheMultigridHierarchy) {
  // Every assembled mesh ships a ready multigrid hierarchy sized to its
  // grid, so kMultigrid solves through the cache never rebuild it. A
  // 33x33 grid coarsens to at most 64 nodes in three steps, so the
  // hierarchy must have several levels, not a degenerate single one.
  MeshSolveCache cache;
  const auto assembled = cache.get(10.0_mm, 10.0_mm, 33, 33, 2e-3);
  ASSERT_FALSE(assembled->pattern->mg_symbolic.empty());
  EXPECT_EQ(assembled->pattern->mg_symbolic.rows(), assembled->mesh.node_count());
  EXPECT_GE(assembled->pattern->mg_symbolic.level_count(), 3u);
  // The hierarchy is usable as-is for a solve against the cached operator.
  std::vector<VrAttachment> vrs{
      {assembled->mesh.node(16, 0), 1.0_V, Resistance{1e-4}}};
  Vector sinks(assembled->mesh.node_count(),
               50.0 / assembled->mesh.node_count());
  IrDropOptions options;
  options.warm_start_voltage = 1.0;
  options.preconditioner = CgPreconditioner::kMultigrid;
  const IrDropResult result = solve_irdrop(*assembled, vrs, sinks, options);
  EXPECT_GT(result.cg_iterations, 0u);
  EXPECT_GT(result.min_node_voltage.value, 0.8);
}

TEST(MeshSolveCache, SolveThroughCacheIsBitIdenticalToDirectSolve) {
  MeshSolveCache cache;
  const auto assembled = cache.get(10.0_mm, 10.0_mm, 15, 15, 2e-3);
  const GridMesh direct(10.0_mm, 10.0_mm, 15, 15, 2e-3);

  std::vector<VrAttachment> vrs{
      {assembled->mesh.node(7, 0), 1.0_V, Resistance{1e-4}},
      {assembled->mesh.node(7, 14), 1.0_V, Resistance{1e-4}}};
  Vector sinks(assembled->mesh.node_count(),
               50.0 / assembled->mesh.node_count());
  const IrDropResult via_cache = solve_irdrop(*assembled, vrs, sinks);
  const IrDropResult via_mesh = solve_irdrop(direct, vrs, sinks);
  ASSERT_EQ(via_cache.node_voltages.size(), via_mesh.node_voltages.size());
  for (std::size_t i = 0; i < via_cache.node_voltages.size(); ++i) {
    EXPECT_EQ(via_cache.node_voltages[i], via_mesh.node_voltages[i]);
  }
  EXPECT_EQ(via_cache.vr_currents, via_mesh.vr_currents);
  EXPECT_EQ(via_cache.cg_iterations, via_mesh.cg_iterations);
}

// Regression for the latent aliasing defect: the cache key originally
// carried only (width, height, nx, ny, sheet), so a conductance-perturbed
// request would have returned the nominal operator. The key now includes
// a digest of the perturbation; a perturbed mesh must never hit the
// nominal entry.
TEST(MeshSolveCache, PerturbedRequestNeverHitsNominalEntry) {
  MeshSolveCache cache;
  const MeshPerturbation damage{
      EdgeScaleRegion{2.0_mm, 2.0_mm, 4.0_mm, 4.0_mm, 0.1}};
  const auto nominal = cache.get(10.0_mm, 10.0_mm, 15, 15, 2e-3);
  const auto perturbed = cache.get(10.0_mm, 10.0_mm, 15, 15, 2e-3, damage);
  EXPECT_NE(nominal.get(), perturbed.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_TRUE(perturbed->mesh.perturbed());
  EXPECT_FALSE(nominal->mesh.perturbed());
  // The perturbed operator really differs from the nominal one.
  EXPECT_NE(nominal->laplacian.values(), perturbed->laplacian.values());
  // Same perturbation hits its own entry; the nominal entry stays intact.
  EXPECT_EQ(perturbed.get(),
            cache.get(10.0_mm, 10.0_mm, 15, 15, 2e-3, damage).get());
  EXPECT_EQ(nominal.get(), cache.get(10.0_mm, 10.0_mm, 15, 15, 2e-3).get());
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(MeshSolveCache, PerturbationDigestSeparatesNominalAndVariants) {
  EXPECT_EQ(mesh_perturbation_digest(MeshPerturbation{}), 0u);
  const MeshPerturbation a{
      EdgeScaleRegion{2.0_mm, 2.0_mm, 4.0_mm, 4.0_mm, 0.1}};
  MeshPerturbation b = a;
  b.front().scale = 0.2;
  EXPECT_NE(mesh_perturbation_digest(a), 0u);  // non-empty never keys as 0
  EXPECT_EQ(mesh_perturbation_digest(a), mesh_perturbation_digest(a));
  EXPECT_NE(mesh_perturbation_digest(a), mesh_perturbation_digest(b));
}

TEST(MeshSolveCache, PerturbedCachedAssemblyMatchesDirectAssembly) {
  const MeshPerturbation damage{
      EdgeScaleRegion{1.0_mm, 1.0_mm, 5.0_mm, 3.0_mm, 0.25}};
  MeshSolveCache cache;
  const auto cached = cache.get(10.0_mm, 10.0_mm, 21, 21, 2e-3, damage);
  const auto direct = assemble_mesh(10.0_mm, 10.0_mm, 21, 21, 2e-3, damage);
  ASSERT_EQ(cached->laplacian.nonzero_count(),
            direct->laplacian.nonzero_count());
  EXPECT_EQ(cached->laplacian.values(), direct->laplacian.values());
  EXPECT_EQ(cached->laplacian.col_indices(), direct->laplacian.col_indices());
}

TEST(MeshSolveCache, ConcurrentGettersBuildEachKeyOnce) {
  MeshSolveCache cache;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const AssembledMesh>> seen(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cache, &seen, t] {
        seen[t] = cache.get(10.0_mm, 10.0_mm, 21, 21, 2e-3);
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0].get(), seen[t].get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, static_cast<std::size_t>(kThreads - 1));
}

// Many keys requested from many threads at once: with assembly outside the
// cache mutex, different keys build concurrently while callers of the same
// key wait on its slot — still exactly one miss per distinct key, and every
// caller of a key gets the one shared operator.
TEST(MeshSolveCache, ConcurrentDistinctKeysBuildOnceEach) {
  MeshSolveCache cache;
  const MeshPerturbation damage{
      EdgeScaleRegion{2.0_mm, 2.0_mm, 6.0_mm, 4.0_mm, 0.0}};
  const std::vector<double> sheets{1e-3, 2e-3, 3e-3};
  constexpr std::size_t kKeys = 6;  // 3 sheets x {nominal, damaged}
  constexpr int kThreads = 8;
  std::vector<std::vector<std::shared_ptr<const AssembledMesh>>> seen(
      kThreads, std::vector<std::shared_ptr<const AssembledMesh>>(kKeys));
  std::atomic<int> arrived{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        arrived.fetch_add(1);
        while (arrived.load() < kThreads) std::this_thread::yield();
        for (std::size_t i = 0; i < kKeys; ++i) {
          const std::size_t k = (i + static_cast<std::size_t>(t)) % kKeys;
          const double sheet = sheets[k / 2];
          seen[t][k] = k % 2 == 0
                           ? cache.get(10.0_mm, 10.0_mm, 21, 21, sheet)
                           : cache.get(10.0_mm, 10.0_mm, 21, 21, sheet,
                                       damage);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  EXPECT_EQ(cache.stats().misses, kKeys);
  EXPECT_EQ(cache.stats().hits, kThreads * kKeys - kKeys);
  EXPECT_EQ(cache.size(), kKeys);
  for (std::size_t k = 0; k < kKeys; ++k) {
    ASSERT_NE(seen[0][k], nullptr);
    for (int t = 1; t < kThreads; ++t)
      EXPECT_EQ(seen[0][k].get(), seen[t][k].get()) << "key " << k;
    for (std::size_t j = 0; j < k; ++j)
      EXPECT_NE(seen[0][j].get(), seen[0][k].get());
    // One grid, so one pattern bundle behind every key.
    EXPECT_EQ(seen[0][k]->pattern.get(), seen[0][0]->pattern.get());
  }
}

// A failing assembly (a 1-node-wide grid) reaches its owner and every
// caller waiting on the same key, caches nothing, and does not wedge the
// cache: the key is retried on the next request and other keys work.
TEST(MeshSolveCache, FailedAssemblyReachesEveryCallerAndCachesNothing) {
  MeshSolveCache cache;
  constexpr int kThreads = 8;
  std::atomic<int> arrived{0};
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        arrived.fetch_add(1);
        while (arrived.load() < kThreads) std::this_thread::yield();
        try {
          cache.get(10.0_mm, 10.0_mm, 1, 11, 2e-3);
        } catch (const InvalidArgument&) {
          failures.fetch_add(1);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  EXPECT_EQ(failures.load(), kThreads);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_THROW(cache.get(10.0_mm, 10.0_mm, 1, 11, 2e-3), InvalidArgument);
  EXPECT_EQ(cache.size(), 0u);
  const auto ok = cache.get(10.0_mm, 10.0_mm, 11, 11, 2e-3);
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok.get(), cache.get(10.0_mm, 10.0_mm, 11, 11, 2e-3).get());
  EXPECT_EQ(cache.size(), 1u);
}

// Perturbations keep severed edges as stored zeros, so every operator on a
// grid shares one pattern bundle; a solve through the shared bundle is
// bit-identical to one through a freshly assembled perturbed mesh.
TEST(MeshSolveCache, PerturbedEntriesShareTheGridPatternBitIdentically) {
  MeshSolveCache cache;
  const MeshPerturbation damage{
      EdgeScaleRegion{3.0_mm, 0.0_mm, 3.5_mm, 10.0_mm, 0.0}};
  const auto nominal = cache.get(10.0_mm, 10.0_mm, 21, 21, 2e-3);
  const auto perturbed = cache.get(10.0_mm, 10.0_mm, 21, 21, 2e-3, damage);
  const auto other_sheet = cache.get(10.0_mm, 10.0_mm, 21, 21, 3e-3, damage);
  ASSERT_NE(nominal.get(), perturbed.get());
  EXPECT_EQ(nominal->pattern.get(), perturbed->pattern.get());
  EXPECT_EQ(nominal->pattern.get(), other_sheet->pattern.get());
  EXPECT_EQ(perturbed->pattern->digest, perturbed->laplacian.pattern_digest());
  // Another grid gets a bundle of its own.
  const auto coarse = cache.get(10.0_mm, 10.0_mm, 11, 11, 2e-3, damage);
  EXPECT_NE(coarse->pattern.get(), nominal->pattern.get());

  const auto direct = assemble_mesh(10.0_mm, 10.0_mm, 21, 21, 2e-3, damage);
  EXPECT_NE(direct->pattern.get(), perturbed->pattern.get());
  std::vector<VrAttachment> vrs{
      {perturbed->mesh.node(0, 10), 1.0_V, Resistance{1e-4}},
      {perturbed->mesh.node(20, 10), 1.0_V, Resistance{1e-4}}};
  Vector sinks(perturbed->mesh.node_count(),
               40.0 / perturbed->mesh.node_count());
  for (const CgPreconditioner pc : {CgPreconditioner::kIncompleteCholesky,
                                    CgPreconditioner::kMultigrid}) {
    IrDropOptions options;
    options.warm_start_voltage = 1.0;
    options.preconditioner = pc;
    CgWorkspace ws_cached;
    CgWorkspace ws_direct;
    options.workspace = &ws_cached;
    const IrDropResult via_cache =
        solve_irdrop(*perturbed, vrs, sinks, options);
    options.workspace = &ws_direct;
    const IrDropResult via_direct = solve_irdrop(*direct, vrs, sinks, options);
    EXPECT_EQ(via_cache.node_voltages, via_direct.node_voltages)
        << to_string(pc);
    EXPECT_EQ(via_cache.vr_currents, via_direct.vr_currents) << to_string(pc);
    EXPECT_EQ(via_cache.cg_iterations, via_direct.cg_iterations)
        << to_string(pc);
  }
}

}  // namespace
}  // namespace vpd
