#include "llmprism/flow/view.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "llmprism/common/thread_pool.hpp"
#include "metrics.hpp"

namespace llmprism {

namespace {

/// FlowStartTimeLess over two view rows: (start, src, dst, bytes).
bool row_less(const FlowView& a, std::size_t i, const FlowView& b,
              std::size_t j) {
  if (a.start_ns[i] != b.start_ns[j]) return a.start_ns[i] < b.start_ns[j];
  if (a.src[i] != b.src[j]) return a.src[i] < b.src[j];
  if (a.dst[i] != b.dst[j]) return a.dst[i] < b.dst[j];
  return a.bytes[i] < b.bytes[j];
}

}  // namespace

std::size_t FlowView::lower_bound_start(TimeNs t) const {
  const auto it = std::lower_bound(start_ns.begin(), start_ns.end(), t);
  return static_cast<std::size_t>(it - start_ns.begin());
}

FlowView FlowView::window(TimeWindow w) const {
  if (!sorted) {
    throw std::logic_error("FlowView::window requires a sorted view");
  }
  const std::size_t lo = lower_bound_start(w.begin);
  const std::size_t hi = lower_bound_start(w.end);
  return slice(lo, hi < lo ? lo : hi);
}

TimeWindow FlowView::time_span() const {
  if (empty()) return {};
  TimeNs lo = start_ns[0];
  TimeNs hi = end_ns(0);
  for (std::size_t i = 0; i < size(); ++i) {
    lo = std::min(lo, start_ns[i]);
    hi = std::max(hi, end_ns(i));
  }
  return {lo, hi};
}

bool FlowView::verify_sorted() const {
  for (std::size_t i = 1; i < size(); ++i) {
    if (row_less(*this, i, *this, i - 1)) return false;
  }
  return true;
}

std::string FlowView::column_error() const {
  const std::size_t n = size();
  const std::span<const std::uint64_t> offsets = switch_offsets;
  if (src.size() != n || dst.size() != n || bytes.size() != n ||
      duration_ns.size() != n ||
      (!offsets.empty() && offsets.size() != n + 1)) {
    return "flow column sizes disagree";
  }
  if (!offsets.empty()) {
    if (offsets[0] != 0) {
      return "switch offsets must start at 0 (got " +
             std::to_string(offsets[0]) + ")";
    }
    constexpr std::size_t kMaxHops = SwitchPath::capacity();
    for (std::size_t i = 0; i < n; ++i) {
      if (offsets[i + 1] < offsets[i]) {
        return "switch offsets not monotone at flow " + std::to_string(i);
      }
      if (offsets[i + 1] - offsets[i] > kMaxHops) {
        return "flow " + std::to_string(i) + ": switch path has " +
               std::to_string(offsets[i + 1] - offsets[i]) + " hops (max " +
               std::to_string(kMaxHops) + ")";
      }
    }
    if (offsets.back() != switch_ids.size()) {
      return "switch offsets end at " + std::to_string(offsets.back()) +
             " (expected num_switch_ids " +
             std::to_string(switch_ids.size()) + ")";
    }
  }
  // The sorted flag is a promise downstream binary searches rely on, so
  // input that lies about it is rejected rather than trusted.
  if (sorted && !verify_sorted()) {
    return "sorted flag set but rows are not sorted";
  }
  return {};
}

FlowColumns::FlowColumns(const FlowTrace& trace) {
  const std::size_t n = trace.size();
  start_ns.reserve(n);
  src.reserve(n);
  dst.reserve(n);
  bytes.reserve(n);
  duration_ns.reserve(n);
  switch_offsets.reserve(n + 1);
  switch_offsets.push_back(0);
  for (const FlowRecord& f : trace.flows()) {
    start_ns.push_back(f.start_time);
    src.push_back(f.src.value());
    dst.push_back(f.dst.value());
    bytes.push_back(f.bytes);
    duration_ns.push_back(f.duration);
    for (const SwitchId sw : f.switches) switch_ids.push_back(sw.value());
    switch_offsets.push_back(switch_ids.size());
  }
  sorted = trace.is_sorted();
}

void FlowColumns::reserve(std::size_t rows, std::size_t switch_entries) {
  start_ns.reserve(rows);
  src.reserve(rows);
  dst.reserve(rows);
  bytes.reserve(rows);
  duration_ns.reserve(rows);
  switch_offsets.reserve(rows + 1);
  switch_ids.reserve(switch_entries);
}

void FlowColumns::resize(std::size_t rows, std::size_t switch_entries) {
  start_ns.resize(rows);
  src.resize(rows);
  dst.resize(rows);
  bytes.resize(rows);
  duration_ns.resize(rows);
  switch_offsets.assign(rows + 1, 0);
  switch_ids.resize(switch_entries);
}

void FlowColumns::clear() {
  start_ns.clear();
  src.clear();
  dst.clear();
  bytes.clear();
  duration_ns.clear();
  switch_offsets.clear();
  switch_ids.clear();
  sorted = true;
}

void FlowColumns::push_back(const FlowRecord& f) {
  if (sorted && !start_ns.empty()) {
    const std::size_t last = start_ns.size() - 1;
    const FlowRecord back = (*this)[last];
    if (FlowStartTimeLess{}(f, back)) sorted = false;
  }
  if (switch_offsets.empty()) switch_offsets.push_back(0);
  start_ns.push_back(f.start_time);
  src.push_back(f.src.value());
  dst.push_back(f.dst.value());
  bytes.push_back(f.bytes);
  duration_ns.push_back(f.duration);
  for (const SwitchId sw : f.switches) switch_ids.push_back(sw.value());
  switch_offsets.push_back(switch_ids.size());
}

void FlowColumns::append_row(const FlowView& v, std::size_t i) {
  if (switch_offsets.empty()) switch_offsets.push_back(0);
  start_ns.push_back(v.start_ns[i]);
  src.push_back(v.src[i]);
  dst.push_back(v.dst[i]);
  bytes.push_back(v.bytes[i]);
  duration_ns.push_back(v.duration_ns[i]);
  for (const std::uint32_t sw : v.switches(i)) switch_ids.push_back(sw);
  switch_offsets.push_back(switch_ids.size());
}

FlowColumns FlowColumns::gather(const FlowView& v,
                                std::span<const std::uint32_t> rows,
                                bool rows_sorted_subset) {
  FlowColumns out;
  std::size_t hops = 0;
  if (!v.switch_offsets.empty()) {
    for (const std::uint32_t r : rows) {
      hops += v.switch_offsets[r + 1] - v.switch_offsets[r];
    }
  }
  out.reserve(rows.size(), hops);
  out.switch_offsets.push_back(0);
  for (const std::uint32_t r : rows) {
    out.start_ns.push_back(v.start_ns[r]);
    out.src.push_back(v.src[r]);
    out.dst.push_back(v.dst[r]);
    out.bytes.push_back(v.bytes[r]);
    out.duration_ns.push_back(v.duration_ns[r]);
    for (const std::uint32_t sw : v.switches(r)) {
      out.switch_ids.push_back(sw);
    }
    out.switch_offsets.push_back(out.switch_ids.size());
  }
  out.sorted = (rows_sorted_subset && v.sorted) || out.view().verify_sorted();
  return out;
}

FlowColumns FlowColumns::merge_sorted_runs(std::vector<FlowColumns> runs) {
  std::size_t total = 0;
  std::size_t hops = 0;
  for (FlowColumns& run : runs) {
    run.sort();
    total += run.size();
    hops += run.switch_ids.size();
  }
  FlowColumns out;
  out.reserve(total, hops);
  out.switch_offsets.push_back(0);

  // Min-heap of run indices keyed by each run's next row; ties go to the
  // lower run index, so the merge is stable in the runs' order.
  std::vector<FlowView> views;
  views.reserve(runs.size());
  for (const FlowColumns& run : runs) views.push_back(run.view());
  std::vector<std::size_t> heads(runs.size(), 0);
  std::vector<std::size_t> heap;
  heap.reserve(runs.size());
  const auto later = [&](std::size_t a, std::size_t b) {
    if (row_less(views[a], heads[a], views[b], heads[b])) return false;
    if (row_less(views[b], heads[b], views[a], heads[a])) return true;
    return a > b;
  };
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (!runs[r].empty()) heap.push_back(r);
  }
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const std::size_t r = heap.back();
    heap.pop_back();
    out.append_row(views[r], heads[r]);
    if (++heads[r] < runs[r].size()) {
      heap.push_back(r);
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  out.sorted = true;
  return out;
}

void FlowColumns::merge_sorted(FlowColumns other) {
  sort();
  other.sort();
  if (other.empty()) return;
  if (empty()) {
    *this = std::move(other);
    return;
  }
  const FlowView mine = view();
  const FlowView theirs = other.view();
  // Pure-append fast path: the incoming run starts at or after our back.
  if (!row_less(theirs, 0, mine, mine.size() - 1)) {
    const std::uint64_t base = switch_offsets.back();
    start_ns.insert(start_ns.end(), other.start_ns.begin(),
                    other.start_ns.end());
    src.insert(src.end(), other.src.begin(), other.src.end());
    dst.insert(dst.end(), other.dst.begin(), other.dst.end());
    bytes.insert(bytes.end(), other.bytes.begin(), other.bytes.end());
    duration_ns.insert(duration_ns.end(), other.duration_ns.begin(),
                       other.duration_ns.end());
    switch_ids.insert(switch_ids.end(), other.switch_ids.begin(),
                      other.switch_ids.end());
    for (std::size_t i = 1; i < other.switch_offsets.size(); ++i) {
      switch_offsets.push_back(base + other.switch_offsets[i]);
    }
    return;
  }
  std::vector<FlowColumns> runs;
  runs.push_back(std::move(*this));
  runs.push_back(std::move(other));
  *this = merge_sorted_runs(std::move(runs));
}

void FlowColumns::drop_before(TimeNs t) {
  if (!sorted && !(sorted = view().verify_sorted())) {
    throw std::logic_error("FlowColumns::drop_before requires sorted columns");
  }
  const std::size_t cut = view().lower_bound_start(t);
  if (cut == 0) return;
  const std::uint64_t hop_cut =
      switch_offsets.empty() ? 0 : switch_offsets[cut];
  start_ns.erase(start_ns.begin(), start_ns.begin() + cut);
  src.erase(src.begin(), src.begin() + cut);
  dst.erase(dst.begin(), dst.begin() + cut);
  bytes.erase(bytes.begin(), bytes.begin() + cut);
  duration_ns.erase(duration_ns.begin(), duration_ns.begin() + cut);
  if (!switch_offsets.empty()) {
    switch_ids.erase(switch_ids.begin(), switch_ids.begin() + hop_cut);
    switch_offsets.erase(switch_offsets.begin(), switch_offsets.begin() + cut);
    for (std::uint64_t& off : switch_offsets) off -= hop_cut;
  }
}

void FlowColumns::sort() {
  // The same counter as FlowTrace::sort: every physical sort of flow data,
  // AoS or columnar, is one tick; touched before the no-op return so it is
  // exported (as 0) once any flows reach a sort boundary.
  obs::Counter& sorts = flow_metrics::sorts();
  if (sorted || view().verify_sorted()) {
    sorted = true;
    return;
  }
  sorts.inc();
  const FlowView v = view();
  std::vector<std::uint32_t> order(size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return row_less(v, a, v, b);
                   });
  FlowColumns out = gather(v, order, false);
  out.sorted = true;
  *this = std::move(out);
}

namespace {

/// splitmix64 finalizer — the same mix std::hash<GpuPair> uses, so bucket
/// spread matches the proven pair-hash quality.
inline std::uint64_t mix64(std::uint64_t k) {
  k += 0x9e3779b97f4a7c15ULL;
  k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ULL;
  k = (k ^ (k >> 27)) * 0x94d049bb133111ebULL;
  return k ^ (k >> 31);
}

}  // namespace

PairIndex::PairIndex(const FlowView& view, ThreadPool* pool) {
  const std::size_t n = view.size();
  pair_of_flow_.resize(n);
  if (n == 0) {
    offsets_.assign(1, 0);
    return;
  }

  // 1) Radix partition flow positions by the high bits of the mixed pair
  //    key: per row chunk a counting pass, then one prefix over (bucket,
  //    chunk) and a stable scatter per chunk. Each bucket then holds a
  //    cache-sized slice to group, in trace order, instead of the whole
  //    trace hammering one hash table.
  const std::size_t want = std::max<std::size_t>(std::size_t{1}, n / 48);
  const std::size_t num_buckets =
      std::min<std::size_t>(std::size_t{1} << 16, std::bit_ceil(want));
  const int shift = 64 - std::countr_zero(num_buckets);
  const auto bucket_of = [shift](std::uint64_t key) -> std::size_t {
    return shift >= 64 ? 0 : mix64(key) >> shift;
  };

  struct Entry {
    std::uint64_t key;
    std::uint32_t pos;
  };
  const std::vector<std::size_t> rows = row_chunks(n, pool);
  const std::size_t chunks = rows.size() - 1;
  // Scratch whose every slot is written before it is read.
  const auto keys = std::make_unique_for_overwrite<std::uint64_t[]>(n);
  const auto scatter = std::make_unique_for_overwrite<Entry[]>(n);
  std::vector<std::vector<std::size_t>> counts(chunks);
  parallel_for(pool, chunks, [&](std::size_t c) {
    std::vector<std::size_t>& count = counts[c];
    count.assign(num_buckets, 0);
    for (std::size_t i = rows[c]; i < rows[c + 1]; ++i) {
      keys[i] = view.pair_key(i);
      ++count[bucket_of(keys[i])];
    }
  });
  const std::vector<std::size_t> bucket_begin =
      chunk_key_prefix(counts, num_buckets, pool);
  parallel_for(pool, chunks, [&](std::size_t c) {
    std::size_t* const cursor = counts[c].data();
    for (std::size_t i = rows[c]; i < rows[c + 1]; ++i) {
      scatter[cursor[bucket_of(keys[i])]++] = {keys[i],
                                               static_cast<std::uint32_t>(i)};
    }
  });

  // 2) Group each bucket by key, over contiguous bucket ranges. The
  //    scatter was stable, so after sorting by (key, pos) every run of
  //    equal keys lists that pair's positions in trace order, and the run
  //    head is the pair's first appearance. A bucket usually holds one
  //    pair, and one whose keys already ascend is sorted by (key, pos):
  //    equal keys sit in scatter order.
  struct Run {
    std::uint64_t key;
    std::uint32_t begin;  ///< offset into `scatter`
    std::uint32_t count;
  };
  const std::vector<std::size_t> ranges = row_chunks(num_buckets, pool);
  std::vector<std::vector<Run>> range_runs(ranges.size() - 1);
  std::vector<std::size_t> bucket_runs(num_buckets + 1, 0);
  parallel_for(pool, range_runs.size(), [&](std::size_t r) {
    std::vector<Run>& out = range_runs[r];
    for (std::size_t b = ranges[r]; b < ranges[r + 1]; ++b) {
      Entry* const lo = scatter.get() + bucket_begin[b];
      Entry* const hi = scatter.get() + bucket_begin[b + 1];
      if (lo == hi) continue;
      if (!std::is_sorted(lo, hi, [](const Entry& a, const Entry& c) {
            return a.key < c.key;
          })) {
        std::sort(lo, hi, [](const Entry& a, const Entry& c) {
          if (a.key != c.key) return a.key < c.key;
          return a.pos < c.pos;
        });
      }
      const std::size_t before = out.size();
      const Entry* run_begin = lo;
      for (const Entry* e = lo + 1; e <= hi; ++e) {
        if (e == hi || e->key != run_begin->key) {
          out.push_back(
              {run_begin->key,
               static_cast<std::uint32_t>(run_begin - scatter.get()),
               static_cast<std::uint32_t>(e - run_begin)});
          run_begin = e;
        }
      }
      bucket_runs[b + 1] = out.size() - before;
    }
  });
  // Runs concatenated in bucket order; bucket b's are
  // [bucket_runs[b], bucket_runs[b + 1]).
  std::vector<Run> runs;
  for (std::vector<Run>& r : range_runs) {
    runs.insert(runs.end(), r.begin(), r.end());
  }
  std::partial_sum(bucket_runs.begin(), bucket_runs.end(),
                   bucket_runs.begin());

  // 3) Dense ids in first-appearance order: sort (head position, run)
  //    keys, O(P log P) over pairs, not flows. Heads are distinct.
  const std::size_t num_pairs = runs.size();
  std::vector<std::uint64_t> by_head(num_pairs);
  for (std::size_t r = 0; r < num_pairs; ++r) {
    by_head[r] = std::uint64_t{scatter[runs[r].begin].pos} << 32 | r;
  }
  std::sort(by_head.begin(), by_head.end());
  std::vector<std::uint32_t> id_of_run(num_pairs);
  pairs_.reserve(num_pairs);
  id_of_.reserve(num_pairs);
  offsets_.assign(num_pairs + 1, 0);
  for (std::size_t id = 0; id < num_pairs; ++id) {
    const std::size_t r = by_head[id] & 0xffffffffu;
    const std::uint64_t key = runs[r].key;
    const GpuPair p(GpuId(static_cast<std::uint32_t>(key >> 32)),
                    GpuId(static_cast<std::uint32_t>(key)));
    pairs_.push_back(p);
    id_of_.emplace(p, static_cast<std::uint32_t>(id));
    id_of_run[r] = static_cast<std::uint32_t>(id);
    offsets_[id + 1] = offsets_[id] + runs[r].count;
  }

  // 4) Fill both flat arrays by contiguous ranges of what they index, ids
  //    for positions_ and rows for pair_of_flow_, so each task writes one
  //    contiguous range. The pairs interleave in trace order: filling
  //    pair_of_flow_ pair by pair would share cache lines across tasks.
  positions_.resize(n);
  const std::vector<std::size_t> ids = row_chunks(num_pairs, pool);
  parallel_for(pool, ids.size() - 1, [&](std::size_t c) {
    for (std::size_t id = ids[c]; id < ids[c + 1]; ++id) {
      const Run& run = runs[by_head[id] & 0xffffffffu];
      std::size_t* out = positions_.data() + offsets_[id];
      for (std::uint32_t e = run.begin; e < run.begin + run.count; ++e) {
        *out++ = scatter[e].pos;
      }
    }
  });
  parallel_for(pool, chunks, [&](std::size_t c) {
    for (std::size_t i = rows[c]; i < rows[c + 1]; ++i) {
      const std::size_t b = bucket_of(keys[i]);
      std::size_t r = bucket_runs[b];
      while (runs[r].key != keys[i]) ++r;
      pair_of_flow_[i] = id_of_run[r];
    }
  });
}

}  // namespace llmprism
