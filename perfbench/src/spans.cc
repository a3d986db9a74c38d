#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kGeo: return "geo";
    case Layer::kAct: return "act";
    case Layer::kService: return "service";
    case Layer::kNet: return "net";
    case Layer::kJoin2: return "join2";
    case Layer::kBench: return "bench";
  }
  return "?";
}

int32_t SpanLog::Add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int32_t>(spans_.size() - 1);
}

int32_t SpanLog::Open(std::string name, Layer layer, int64_t start_ns,
                      int32_t parent, uint64_t request_id) {
  Span s;
  s.name = std::move(name);
  s.layer = layer;
  s.start_ns = start_ns;
  s.end_ns = start_ns;
  s.parent = parent;
  s.request_id = request_id;
  return Add(std::move(s));
}

void SpanLog::AddStages(int32_t parent, const std::vector<Stage>& stages) {
  int64_t at = spans_[parent].start_ns;
  const uint64_t rid = spans_[parent].request_id;
  for (const Stage& st : stages) {
    Span s;
    s.name = st.name;
    s.layer = st.layer;
    s.start_ns = at;
    s.end_ns = at + static_cast<int64_t>(st.micros * 1e3);
    s.parent = parent;
    s.request_id = rid;
    s.synthetic = true;
    at = s.end_ns;
    Add(std::move(s));
  }
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"request_id\":%llu,"
                 "\"synthetic\":%s}\n",
                 i, s.name.c_str(), LayerName(s.layer),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request_id),
                 s.synthetic ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[s.parent];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[s.parent].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max<int64_t>(0, spans[i].end_ns - spans[i].start_ns - covered);
  }
  return self;
}

std::array<int64_t, kNumLayers> SelfTimeByLayer(const std::vector<Span>& spans,
                                                size_t first, size_t last) {
  std::array<int64_t, kNumLayers> out{};
  const std::vector<int64_t> self = SelfTimes(spans);
  last = std::min(last, spans.size());
  for (size_t i = first; i < last; ++i) {
    out[static_cast<int>(spans[i].layer)] += self[i];
  }
  return out;
}

}  // namespace perfbench
