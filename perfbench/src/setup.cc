#include <stdexcept>

#include "phases.h"
#include "runtime/parallel_map.h"

namespace perfbench {
namespace {

// Offline corpus shape: enough copies that ~1.5k flows are resident at
// once (all arrive within half a second of capture time and each lasts
// about 1.5 s), far more than the stream engine's one-entry hot memo.
constexpr std::size_t kOfflineCopies = 1536;
constexpr double kOfflineArrivalsPerSec = 3000;
// Daemon slices: low concurrency, about a dozen flows open at a time.
constexpr double kDaemonArrivalsPerSec = 8;
constexpr std::uint64_t kGridSeed = 1;

// A merged capture is a pure function of the base frames and of which
// base each copy uses at which offset.
std::uint64_t digest_copies(const MergedCapture& m, std::uint64_t h) {
  for (const MergedCapture::Copy& c : m.copies) {
    h = fnv1a(&c.base, sizeof(c.base), h);
    h = fnv1a(&c.offset, sizeof(c.offset), h);
  }
  return h;
}

}  // namespace

Setup build_setup(const LinkPoint& link, std::uint64_t seed,
                  const Budget& budget, const ccsig::FlowAnalyzer& analyzer) {
  Setup s;
  // The simulated reps are the same for every run seed, so every seed
  // measures the same flow mix; the seed draws the arrival times and the
  // order in which copies of the base captures arrive.
  s.grid = make_grid(link, kGridSeed);
  s.bases = ccsig::runtime::parallel_map(
      s.grid,
      [&analyzer](const GridSpec& g) {
        return capture_base(g, "base_" + std::to_string(g.index) + ".pcap",
                            analyzer);
      },
      4);
  for (const BaseCapture& b : s.bases) s.grid_digest = b.row.digest(s.grid_digest);

  const MergedCapture offline =
      merge_copies(s.bases, kOfflineCopies, 0, kOfflineArrivalsPerSec, seed,
                   "corpus.pcap");
  s.offline_path = offline.path;
  s.offline_records = offline.records;
  s.offline_peak_concurrent = offline.peak_concurrent;
  for (std::uint32_t c = 0; c < offline.copies.size(); ++c) {
    s.offline_expected.push_back(
        expected_report(s.bases[offline.copies[c].base], c));
  }

  const auto slice = [&](double rate, double seconds, std::uint64_t salt,
                         const char* path, std::vector<std::string>& lines) {
    MergedCapture m = merge_copies(
        s.bases, 65536, static_cast<std::size_t>(rate * seconds),
        kDaemonArrivalsPerSec, mix_seed(seed ^ salt), path);
    for (std::uint32_t c = 0; c < m.copies.size(); ++c) {
      const auto r = expected_report(s.bases[m.copies[c].base], c);
      lines.push_back(r ? ccsig::FlowAnalyzer::render(*r) : std::string());
    }
    return m;
  };
  s.low = slice(kLowRate, budget.low_s, 1, "low_slice.pcap", s.low_lines);
  s.high = slice(kHighRate, budget.high_s, 2, "high_slice.pcap", s.high_lines);

  std::uint64_t h = s.grid_digest;
  for (const BaseCapture& b : s.bases) {
    for (const Frame& f : b.frames) h = fnv1a(f.bytes.data(), kFrameBytes, h);
    const std::string line =
        b.oracle ? ccsig::FlowAnalyzer::render(*b.oracle) : "no flow";
    h = fnv1a(line.data(), line.size(), h);
  }
  h = digest_copies(offline, h);
  h = digest_copies(s.low, h);
  s.digest = digest_copies(s.high, h);
  return s;
}

}  // namespace perfbench
