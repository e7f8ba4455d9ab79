#include "core/snmf_attack.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "bit_digest.hpp"
#include "core/metrics.hpp"
#include "rng/rng.hpp"
#include "scheme/mkfse.hpp"

namespace aspe::core {
namespace {

struct Scenario {
  std::vector<BitVec> truth_indexes;
  std::vector<BitVec> truth_trapdoors;
  sse::CoaView view;
};

/// Random binary indexes/trapdoors encrypted with the Scheme-2 apparatus
/// (the exact setting of §VI-B1, at reduced scale).
Scenario make_scenario(std::size_t d, std::size_t m, std::size_t n,
                       double index_density, double trapdoor_density,
                       std::uint64_t seed) {
  rng::Rng rng(seed);
  scheme::SplitEncryptor enc(d, rng);
  Scenario s;
  for (std::size_t i = 0; i < m; ++i) {
    s.truth_indexes.push_back(rng.binary_bernoulli(d, index_density));
    s.view.cipher_indexes.push_back(
        enc.encrypt_index(to_real(s.truth_indexes.back()), rng));
  }
  for (std::size_t j = 0; j < n; ++j) {
    s.truth_trapdoors.push_back(rng.binary_bernoulli(d, trapdoor_density));
    s.view.cipher_trapdoors.push_back(
        enc.encrypt_trapdoor(to_real(s.truth_trapdoors.back()), rng));
  }
  return s;
}

SnmfAttackOptions fast_options(std::size_t d) {
  SnmfAttackOptions opt;
  opt.rank = d;
  opt.restarts = 3;
  opt.nmf.max_iterations = 250;
  opt.nmf.rel_tol = 1e-7;
  return opt;
}

PrecisionRecall evaluate(const Scenario& s, const SnmfAttackResult& res) {
  const auto perm = align_latent_dimensions(s.truth_indexes, s.truth_trapdoors,
                                            res.indexes, res.trapdoors);
  std::vector<PrecisionRecall> prs;
  for (std::size_t i = 0; i < s.truth_indexes.size(); ++i) {
    prs.push_back(binary_precision_recall(
        s.truth_indexes[i], apply_permutation(res.indexes[i], perm)));
  }
  for (std::size_t j = 0; j < s.truth_trapdoors.size(); ++j) {
    prs.push_back(binary_precision_recall(
        s.truth_trapdoors[j], apply_permutation(res.trapdoors[j], perm)));
  }
  return average(prs);
}

TEST(SnmfAttack, ScoreMatrixIsExactIntegerInnerProducts) {
  const Scenario s = make_scenario(12, 8, 6, 0.3, 0.2, 1);
  const linalg::Matrix r =
      build_score_matrix(s.view.cipher_indexes, s.view.cipher_trapdoors);
  ASSERT_EQ(r.rows(), 8u);
  ASSERT_EQ(r.cols(), 6u);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      double expected = 0.0;
      for (std::size_t k = 0; k < 12; ++k) {
        expected += s.truth_indexes[i][k] && s.truth_trapdoors[j][k] ? 1 : 0;
      }
      EXPECT_DOUBLE_EQ(r(i, j), expected) << i << "," << j;
    }
  }
}

TEST(SnmfAttack, RecoversBinaryVectorsAtModerateDensity) {
  // d = 10, m = n = 40 (>= 2d as in Table III), rho = 30%: the attack should
  // reconstruct most bits (after optimal relabeling; see DESIGN.md §4.5).
  const Scenario s = make_scenario(10, 40, 40, 0.3, 0.25, 2);
  const SnmfAttackResult res =
      run_snmf_attack(s.view, fast_options(10), ExecContext{.seed = 3});
  ASSERT_EQ(res.indexes.size(), 40u);
  ASSERT_EQ(res.trapdoors.size(), 40u);
  const PrecisionRecall pr = evaluate(s, res);
  EXPECT_GE(pr.precision, 0.7);
  EXPECT_GE(pr.recall, 0.7);
}

TEST(SnmfAttack, LowDensityDegradesAccuracy) {
  // The paper's rho = 5% failure mode: sparse data admits many factorizations.
  const Scenario dense = make_scenario(10, 40, 40, 0.35, 0.3, 4);
  const Scenario sparse = make_scenario(10, 40, 40, 0.05, 0.05, 4);
  const ExecContext ctx{.seed = 5};
  const auto res_dense = run_snmf_attack(dense.view, fast_options(10), ctx);
  const auto res_sparse = run_snmf_attack(sparse.view, fast_options(10), ctx);
  const auto pr_dense = evaluate(dense, res_dense);
  const auto pr_sparse = evaluate(sparse, res_sparse);
  const double f1_dense = pr_dense.precision + pr_dense.recall;
  const double f1_sparse =
      (pr_sparse.precision_valid ? pr_sparse.precision : 0.0) +
      (pr_sparse.recall_valid ? pr_sparse.recall : 0.0);
  EXPECT_GT(f1_dense, f1_sparse);
}

TEST(SnmfAttack, MoreCiphertextsImproveAccuracy) {
  // Figure 3's trend at miniature scale.
  const Scenario small = make_scenario(8, 10, 10, 0.3, 0.25, 6);
  const Scenario large = make_scenario(8, 48, 48, 0.3, 0.25, 6);
  const ExecContext ctx{.seed = 7};
  const auto res_small = run_snmf_attack(small.view, fast_options(8), ctx);
  const auto res_large = run_snmf_attack(large.view, fast_options(8), ctx);
  const auto pr_small = evaluate(small, res_small);
  const auto pr_large = evaluate(large, res_large);
  EXPECT_GE(pr_large.precision + pr_large.recall,
            pr_small.precision + pr_small.recall - 0.1);
}

TEST(SnmfAttack, FrequencyDistributionPreserved) {
  // Table IV's property: duplicate indexes stay duplicates in I*.
  rng::Rng rng(8);
  const std::size_t d = 10;
  scheme::SplitEncryptor enc(d, rng);
  Scenario s;
  // Three distinct vectors with frequencies 5, 3, 2.
  const std::vector<std::size_t> freq = {5, 3, 2};
  for (std::size_t g = 0; g < freq.size(); ++g) {
    const BitVec v = rng.binary_bernoulli(d, 0.4);
    for (std::size_t c = 0; c < freq[g]; ++c) {
      s.truth_indexes.push_back(v);
      s.view.cipher_indexes.push_back(enc.encrypt_index(to_real(v), rng));
    }
  }
  for (std::size_t j = 0; j < 30; ++j) {
    s.truth_trapdoors.push_back(rng.binary_bernoulli(d, 0.3));
    s.view.cipher_trapdoors.push_back(
        enc.encrypt_trapdoor(to_real(s.truth_trapdoors.back()), rng));
  }
  const auto res =
      run_snmf_attack(s.view, fast_options(d), ExecContext{.seed = 9});
  const auto top = top_frequencies(res.indexes, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].second, 5u);
  EXPECT_EQ(top[1].second, 3u);
  EXPECT_EQ(top[2].second, 2u);
}

TEST(SnmfAttack, WorksAgainstRealMkfsePipeline) {
  // End-to-end COA against MKFSE documents rather than synthetic bits.
  rng::Rng rng(12);
  scheme::MkfseOptions mopt;
  mopt.bloom_bits = 12;
  mopt.lsh_functions = 2;
  const scheme::Mkfse scheme(mopt, rng);
  Scenario s;
  const std::vector<std::vector<std::string>> docs = {
      {"alpha", "bravo", "charlie", "delta"},
      {"echo", "foxtrot", "golf"},
      {"hotel", "india", "juliet", "kilo"},
      {"lima", "mike", "november"},
      {"oscar", "papa", "quebec", "romeo"},
      {"sierra", "tango", "uniform"},
      {"victor", "whiskey", "xray", "yankee"},
      {"zulu", "amber", "bronze"},
  };
  for (int copy = 0; copy < 4; ++copy) {
    for (const auto& doc : docs) {
      // Fresh encryption per copy; plaintext index identical across copies.
      const BitVec index = scheme.build_index(doc);
      s.truth_indexes.push_back(index);
      s.view.cipher_indexes.push_back(scheme.encrypt_index(index, rng));
    }
  }
  const std::vector<std::vector<std::string>> queries = {
      {"alpha"}, {"golf"}, {"kilo", "india"}, {"tango"},
      {"xray"},  {"zulu"}, {"papa", "oscar"}, {"mike"},
  };
  for (int copy = 0; copy < 4; ++copy) {
    for (const auto& q : queries) {
      const BitVec t = scheme.build_trapdoor(q);
      s.truth_trapdoors.push_back(t);
      s.view.cipher_trapdoors.push_back(scheme.encrypt_trapdoor(t, rng));
    }
  }
  SnmfAttackOptions opt = fast_options(12);
  opt.restarts = 5;
  const auto res = run_snmf_attack(s.view, opt, ExecContext{.seed = 13});
  const auto pr = evaluate(s, res);
  EXPECT_GE(pr.precision, 0.6);
  EXPECT_GE(pr.recall, 0.55);
}

TEST(SnmfAttack, LatentDimensionEstimatedFromCiphertextsAlone) {
  // rank(R) reveals d to a COA adversary once m, n comfortably exceed d and
  // the data is dense enough — no prior knowledge of the scheme parameters
  // needed to set Algorithm 3's rank input.
  for (std::size_t d : {6u, 10u, 14u}) {
    const Scenario s = make_scenario(d, 4 * d, 4 * d, 0.4, 0.35, 100 + d);
    const auto r =
        build_score_matrix(s.view.cipher_indexes, s.view.cipher_trapdoors);
    EXPECT_EQ(estimate_latent_dimension(r), d) << "d=" << d;
  }
}

TEST(SnmfAttack, LatentDimensionBoundedByObservations) {
  // With fewer observations than d the rank can only reach min(m, n).
  const Scenario s = make_scenario(12, 5, 7, 0.5, 0.5, 3);
  const auto r =
      build_score_matrix(s.view.cipher_indexes, s.view.cipher_trapdoors);
  EXPECT_LE(estimate_latent_dimension(r), 5u);
  EXPECT_THROW(estimate_latent_dimension(linalg::Matrix(0, 0)),
               InvalidArgument);
}

TEST(SnmfAttack, Validation) {
  SnmfAttackOptions opt;  // rank unset
  sse::CoaView empty;
  EXPECT_THROW(run_snmf_attack(empty, opt), InvalidArgument);
  opt.rank = 4;
  EXPECT_THROW(run_snmf_attack(empty, opt), InvalidArgument);
  opt.restarts = 0;
  EXPECT_THROW(run_snmf_attack(linalg::Matrix(2, 2, 1.0), opt),
               InvalidArgument);
}

TEST(SnmfAttack, CoaBulkShapePinnedBitwise) {
  // One coa-bulk-shaped job: d = 12, 4000 indexes x 400 trapdoors, the rank
  // estimated by the truncated SVD, L = 1, 5 ANLS iterations. The score
  // GEMM, the range finder's GEMMs and QRs and ANLS's F products all run
  // the blocked kernels here. Recorded at commit 3eb8847.
  const Scenario s = make_scenario(12, 4000, 400, 0.25, 0.25, 4000);
  const linalg::Matrix scores =
      build_score_matrix(s.view.cipher_indexes, s.view.cipher_trapdoors, 1);
  SnmfAttackOptions opt;
  opt.restarts = 1;
  opt.nmf.max_iterations = 5;
  std::optional<std::uint64_t> first;
  for (const std::size_t threads : {1, 4}) {
    const ExecContext ctx{.threads = threads, .seed = 5};
    opt.rank = estimate_latent_dimension(scores, opt.rank_tol, ctx);
    const SnmfAttackResult res = run_snmf_attack(scores, opt, ctx);
    pinning::Fnv1a digest;
    digest.add(std::uint64_t{opt.rank});
    for (const BitVec& bits : res.indexes) {
      for (const auto bit : bits) digest.add(std::uint64_t{bit});
    }
    for (const BitVec& bits : res.trapdoors) {
      for (const auto bit : bits) digest.add(std::uint64_t{bit});
    }
    digest.add(res.best_fit_error);
    if (!first) first = digest.h;
    EXPECT_EQ(digest.h, *first) << "threads " << threads;
    if (const auto pin = pinning::pinned_for_gemm_clone(
            0x42b6777bf68d5a52ull, 0x531be6ab394b39f7ull)) {
      EXPECT_EQ(digest.h, *pin)
          << "threads " << threads << " digest 0x" << std::hex << digest.h;
    }
  }
}

}  // namespace
}  // namespace aspe::core
