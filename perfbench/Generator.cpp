//===- Generator.cpp - Seeded benchmark inputs with known answers ---------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "Generator.h"

#include "fleet/Monorepo.h"

#include <algorithm>
#include <stdexcept>

using namespace perfbench;

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

std::vector<Unit> perfbench::figure7Corpus(uint64_t Seed) {
  std::vector<Unit> Units;
  for (const rcc::casestudies::CaseStudy &CS :
       rcc::casestudies::allCaseStudies())
    Units.push_back({CS.Id, CS.Source, CS.Functions,
                     std::vector<bool>(CS.Functions.size(), true)});
  Rng R(Seed);
  R.shuffle(Units);
  return Units;
}

namespace {

/// Splits a generated monorepo into (function name, block) pairs. Each
/// block starts at its `[[rc::parameters(` annotation and runs to the next.
std::vector<std::pair<std::string, std::string>>
splitBlocks(const std::string &Src) {
  static const std::string Start = "[[rc::parameters(";
  static const std::string Sig = "unsigned int ";
  std::vector<std::pair<std::string, std::string>> Out;
  size_t Pos = Src.find(Start);
  while (Pos != std::string::npos) {
    size_t Next = Src.find(Start, Pos + Start.size());
    std::string Block = Src.substr(
        Pos, Next == std::string::npos ? std::string::npos : Next - Pos);
    size_t S = Block.find(Sig);
    size_t Paren = S == std::string::npos ? S : Block.find('(', S);
    if (Paren == std::string::npos)
      throw std::runtime_error("monorepo block without a signature");
    Out.emplace_back(Block.substr(S + Sig.size(), Paren - S - Sig.size()),
                     std::move(Block));
    Pos = Next;
  }
  return Out;
}

} // namespace

Monorepo::Monorepo(unsigned Functions, uint64_t Seed) : Seed(Seed) {
  auto Pass = splitBlocks(rcc::fleet::monorepoSource(Functions));
  auto Fail = splitBlocks(rcc::fleet::monorepoSource(Functions, 1));
  if (Pass.size() != Functions || Fail.size() != Functions)
    throw std::runtime_error("monorepo generator returned " +
                             std::to_string(Pass.size()) + " blocks for " +
                             std::to_string(Functions) + " functions");
  for (unsigned I = 0; I < Functions; ++I) {
    if (Pass[I].first != Fail[I].first ||
        Pass[I].first != rcc::fleet::monorepoFnName(I))
      throw std::runtime_error("monorepo variants disagree on function " +
                               std::to_string(I));
    Blocks.push_back({Pass[I].first, std::move(Pass[I].second),
                      std::move(Fail[I].second), false});
  }
  Rng R(Seed);
  R.shuffle(Blocks);
  std::vector<size_t> All(Blocks.size());
  for (size_t I = 0; I < Blocks.size(); ++I) {
    All[I] = I;
    const Block &B = Blocks[I];
    if (std::count(B.Pass.begin(), B.Pass.end(), '\n') ==
        std::count(B.Fail.begin(), B.Fail.end(), '\n'))
      Editable.push_back(I);
  }
  size_t NumFail = (static_cast<size_t>(Functions) * 2 + 50) / 100;
  for (size_t I : pick(R, All, NumFail))
    Blocks[I].Failing = true;
}

std::vector<size_t> Monorepo::pick(Rng &R, const std::vector<size_t> &From,
                                   size_t K) {
  K = std::min(K, From.size());
  std::vector<size_t> Picked;
  while (Picked.size() < K) {
    size_t I = From[R.below(From.size())];
    if (std::find(Picked.begin(), Picked.end(), I) == Picked.end())
      Picked.push_back(I);
  }
  return Picked;
}

std::vector<size_t> Monorepo::pickFlips(Rng &R, size_t K) const {
  return pick(R, Editable, K);
}

Unit Monorepo::render(const std::vector<size_t> &Flips) const {
  std::vector<bool> Failing(Blocks.size());
  for (size_t I = 0; I < Blocks.size(); ++I)
    Failing[I] = Blocks[I].Failing;
  for (size_t I : Flips)
    Failing[I] = !Failing[I];

  Unit U;
  U.Id = "monorepo";
  U.Source = "// perfbench monorepo: " + std::to_string(Blocks.size()) +
             " functions, seed " + std::to_string(Seed) + "\n";
  U.Source.reserve(Blocks.size() * 300);
  for (size_t I = 0; I < Blocks.size(); ++I) {
    U.Source += Failing[I] ? Blocks[I].Fail : Blocks[I].Pass;
    U.Functions.push_back(Blocks[I].Name);
    U.Expected.push_back(!Failing[I]);
  }
  return U;
}
