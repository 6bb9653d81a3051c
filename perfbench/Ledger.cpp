//===- Ledger.cpp - Metrics, verdict counts and the result line -----------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace perfbench;

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

void Ledger::metric(const std::string &Name, const std::string &Unit,
                    double Value) {
  Metrics.push_back({Name, Unit, Value});
}

void Ledger::failure(const std::string &Why) {
  ++Failed;
  checkFailed(Why);
}

void Ledger::checkFailed(const std::string &Why) {
  if (Problems.size() < kMaxProblems)
    Problems.push_back(Why);
  ++ProblemCount;
}

std::string perfbench::jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string perfbench::jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string Ledger::resultJson() const {
  std::string Out = "{\"correct\": ";
  Out += correct() ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    if (I)
      Out += ", ";
    Out += jsonString(Metrics[I].Name) +
           ": {\"value\": " + jsonNumber(Metrics[I].Value) +
           ", \"unit\": " + jsonString(Metrics[I].Unit) + "}";
  }
  return Out + "}}";
}
