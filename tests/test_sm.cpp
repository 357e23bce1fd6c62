#include "protocols/authenticated/sm.hpp"

#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "faults/adversaries.hpp"
#include "faults/search.hpp"
#include "protocols/lamport/om.hpp"
#include "sim/runner.hpp"

namespace da::protocols::authenticated {
namespace {

sim::RunResult run_sm(int n, int m, NodeId sender, Value v,
                      const std::vector<NodeId>& faulty,
                      sim::Adversary* adversary,
                      const SignatureAuthority& authority) {
  sim::RunOptions options;
  options.faulty = faulty;
  options.adversary = adversary;
  sim::SyncRunner runner(make_sm_processes(n, m, sender, v, authority),
                         options);
  return runner.run();
}

TEST(SmProcess, RejectsIdsBeyondAPathHop) {
  const SignatureAuthority authority(1, 200);
  const auto params = [&](NodeId top) {
    return SmProcess::Params{.self = 0,
                             .sender = 0,
                             .nodes = {0, 1, top},
                             .m = 1,
                             .input = Value::of(1),
                             .authority = &authority};
  };
  EXPECT_NO_THROW(SmProcess(params(127)));
  EXPECT_THROW(SmProcess(params(128)), std::logic_error);
}

TEST(Signatures, SignVerifyRoundTrip) {
  const SignatureAuthority authority(1, 4);
  const Path chain{0, 2};
  const std::uint64_t tag = authority.chain_tag(chain, Value::of(7));
  EXPECT_TRUE(authority.verify_chain(chain, Value::of(7), tag));
  EXPECT_FALSE(authority.verify_chain(chain, Value::of(8), tag));
  EXPECT_FALSE(authority.verify_chain(Path{0, 3}, Value::of(7), tag));
  EXPECT_FALSE(authority.verify_chain(chain, Value::of(7), tag + 1));
}

TEST(Signatures, ChainOrderMatters) {
  const SignatureAuthority authority(2, 4);
  EXPECT_NE(authority.chain_tag(Path{0, 1}, Value::of(3)),
            authority.chain_tag(Path{1, 0}, Value::of(3)));
}

TEST(Signatures, DefaultAndZeroPayloadDiffer) {
  const SignatureAuthority authority(3, 2);
  EXPECT_NE(authority.chain_tag(Path{0}, Value::def()),
            authority.chain_tag(Path{0}, Value::of(0)));
}

TEST(Sm, NoFaultsEveryoneDecides) {
  const SignatureAuthority authority(4, 5);
  const auto result = run_sm(5, 2, 0, Value::of(9), {}, nullptr, authority);
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(result.decisions.at(i), Value::of(9));
  }
}

TEST(Sm, BlindTamperingIsImpotent) {
  // A traitor that rewrites values without valid signatures only achieves
  // omission: the fault-free sender's value still wins everywhere.
  const SignatureAuthority authority(5, 5);
  auto adversary = blind_tamperer(Value::of(666));
  const auto result =
      run_sm(5, 2, 0, Value::of(9), {2, 3}, adversary.get(), authority);
  for (NodeId i : {1, 4}) {
    EXPECT_EQ(result.decisions.at(i), Value::of(9)) << "node " << i;
  }
}

TEST(Sm, FourNodesTolerateTwoTraitors) {
  // The headline property signatures buy: n = m+2 suffices (here 4 nodes,
  // 2 traitors — impossible without signatures, which need 3m+1 = 7).
  const SignatureAuthority authority(6, 4);
  const std::vector<NodeId> faulty{0, 2};  // sender itself is a traitor
  auto adversary =
      signing_equivocator(authority, faulty, Value::of(5), Value::of(8));
  const auto result =
      run_sm(4, 2, 0, Value::of(5), faulty, adversary.get(), authority);
  // IC1: both fault-free receivers decide the same value.
  EXPECT_EQ(result.decisions.at(1), result.decisions.at(3));
}

TEST(Sm, SigningEquivocatorExposedByRelay) {
  // With one traitorous sender and m = 1, the equivocation is caught:
  // receivers relay both signed values, everyone's V has two elements,
  // and choice(V) = V_d for all — agreement on the default.
  const SignatureAuthority authority(7, 5);
  const std::vector<NodeId> faulty{0};
  auto adversary =
      signing_equivocator(authority, faulty, Value::of(5), Value::of(8));
  const auto result =
      run_sm(5, 1, 0, Value::of(5), faulty, adversary.get(), authority);
  for (NodeId i = 1; i < 5; ++i) {
    EXPECT_EQ(result.decisions.at(i), Value::def()) << "node " << i;
  }
}

TEST(Sm, ExhaustiveAgreementSweep) {
  // IC1/IC2 over every faulty subset of size <= m for n = m+2 .. m+4,
  // under signing equivocators and the blind family.
  for (const auto& [n, m] : std::vector<std::pair<int, int>>{
           {4, 2}, {5, 2}, {5, 3}, {6, 2}}) {
    const SignatureAuthority authority(100 + n, n);
    faults::for_each_subset(n, m, [&, n = n, m = m](
                                      const std::vector<NodeId>& faulty) {
      std::vector<std::unique_ptr<sim::Adversary>> adversaries;
      adversaries.push_back(signing_equivocator(authority, faulty,
                                                Value::of(3), Value::of(4)));
      adversaries.push_back(blind_tamperer(Value::of(9)));
      adversaries.push_back(faults::silent());
      for (auto& adversary : adversaries) {
        const auto result =
            run_sm(n, m, 0, Value::of(3), faulty, adversary.get(), authority);
        ScenarioSpec spec;
        spec.config = Config{.n = n, .m = m, .u = m};
        spec.sender = 0;
        spec.sender_value = Value::of(3);
        spec.faulty = faulty;
        EXPECT_TRUE(lamport::byzantine_agreement_holds(
            0, Value::of(3), spec.sender_faulty(),
            spec.fault_free_receivers(), result.decisions))
            << "n=" << n << " m=" << m << " " << spec.to_string();
      }
    });
  }
}

TEST(Sm, MessageVolumeIsPolynomial) {
  // Each node relays each distinct value at most once: no N^m blowup.
  const SignatureAuthority authority(8, 10);
  const auto result = run_sm(10, 4, 0, Value::of(1), {}, nullptr, authority);
  // Fault-free run: one value, sender's 9 sends + each receiver relays to
  // the <= 8 nodes outside its chain exactly once.
  EXPECT_LT(result.messages_sent, 100u);
  EXPECT_EQ(result.rounds, 5);
}

}  // namespace
}  // namespace da::protocols::authenticated
