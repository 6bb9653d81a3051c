//===- Metrics.cpp --------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "trace/Metrics.h"

#include <sstream>

using namespace rcc::trace;

Counter &MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> G(M);
  std::unique_ptr<Counter> &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &MetricsRegistry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> G(M);
  std::unique_ptr<Gauge> &Slot = Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Duration &MetricsRegistry::duration(const std::string &Name) {
  std::lock_guard<std::mutex> G(M);
  std::unique_ptr<Duration> &Slot = Durations[Name];
  if (!Slot)
    Slot = std::make_unique<Duration>();
  return *Slot;
}

std::map<std::string, uint64_t> MetricsRegistry::counters() const {
  std::lock_guard<std::mutex> G(M);
  std::map<std::string, uint64_t> Out;
  for (const auto &[Name, C] : Counters)
    Out[Name] = C->get();
  for (const auto &[Name, D] : Durations)
    Out[Name] += D->micros();
  return Out;
}

std::map<std::string, int64_t> MetricsRegistry::gauges() const {
  std::lock_guard<std::mutex> G(M);
  std::map<std::string, int64_t> Out;
  for (const auto &[Name, V] : Gauges)
    Out[Name] = V->get();
  return Out;
}

bool MetricsRegistry::isDuration(const std::string &Name) {
  if (Name.size() < 3)
    return false;
  return Name.compare(Name.size() - 3, 3, "_us") == 0;
}

std::string MetricsRegistry::toJson(bool Deterministic) const {
  std::ostringstream OS;
  OS << "{";
  bool First = true;
  for (const auto &[Name, V] : counters()) {
    OS << (First ? "" : ", ") << '"' << Name << "\": "
       << (Deterministic && isDuration(Name) ? 0 : V);
    First = false;
  }
  for (const auto &[Name, V] : gauges()) {
    OS << (First ? "" : ", ") << '"' << Name << "\": "
       << (Deterministic && isDuration(Name) ? 0 : V);
    First = false;
  }
  OS << "}";
  return OS.str();
}
