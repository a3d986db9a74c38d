// In-memory spans for the traced run. The benchmark wraps each call it
// makes into an actjoin module's public API in a span; server-side stage
// times that only come back as durations (the JOIN_BATCH / JOIN_DATASETS
// trace flag) become synthetic child spans laid back to back from their
// parent's start. Self time is a span's duration minus the part of it its
// children cover, so a layer's self time is the time spent in that layer
// and nowhere below it.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Layers are actjoin module names; kBench is the benchmark's own work
/// (reference checks), kept out of the layer shares.
enum class Layer : uint8_t { kGeo, kAct, kService, kNet, kJoin2, kBench };
inline constexpr int kNumLayers = 6;
const char* LayerName(Layer layer);

struct Span {
  std::string name;
  Layer layer = Layer::kBench;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the log, -1 for a root
  uint64_t request_id = 0;
  bool synthetic = false;  // placement derived from a reported duration
};

class SpanLog {
 public:
  /// Appends a finished span and returns its index.
  int32_t Add(Span span);
  /// Opens a span at `start_ns`; Close() sets its end.
  int32_t Open(std::string name, Layer layer, int64_t start_ns,
               int32_t parent = -1, uint64_t request_id = 0);
  void Close(int32_t id, int64_t end_ns) { spans_[id].end_ns = end_ns; }
  /// Appends synthetic children of `parent`, one per (name, layer,
  /// duration) stage, back to back from the parent's start.
  struct Stage {
    const char* name;
    Layer layer;
    double micros;
  };
  void AddStages(int32_t parent, const std::vector<Stage>& stages);

  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

  /// One JSON object per line; false if the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it. Indexed like `spans`.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Self time summed per layer over spans [first, last). Spans are appended
/// root-first, so a range that starts at a root and ends where a later root
/// begins (or at the end) holds whole trees.
std::array<int64_t, kNumLayers> SelfTimeByLayer(const std::vector<Span>& spans,
                                                size_t first = 0,
                                                size_t last = SIZE_MAX);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
