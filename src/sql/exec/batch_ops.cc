#include "sql/exec/batch_ops.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "util/clock.h"
#include "util/logging.h"

namespace focus::sql {

namespace {

// Result type of a sorted-run aggregate; mirrors HashAggregate's
// AggOutputType so the two engines emit identical schemas.
TypeId SortedAggOutputType(const AggSpec& spec, const Schema& in) {
  switch (spec.kind) {
    case AggKind::kCount:
      return TypeId::kInt64;
    case AggKind::kSum:
      return in.column(spec.col).type == TypeId::kDouble ? TypeId::kDouble
                                                         : TypeId::kInt64;
    default:
      FOCUS_CHECK(false, "BatchSortedAggregate supports SUM/COUNT only");
  }
  return TypeId::kDouble;
}

// Sort fast path for up to two integer key columns with no NULLs. The
// keys are range-compressed into one order-preserving uint64 word per row
// (descending fields store max - v), so one machine-word compare decides
// the full lexicographic order; when the word is narrow, a stable LSD
// radix sort replaces the comparison sort entirely. The resulting
// permutation is exactly the stable sort under CompareRowsOnKeys. Keys
// whose combined range exceeds 64 bits fall back to sorting flat
// (key, key, index) structs with the row index as the tiebreak.
int64_t IntAt(const ColumnData& col, size_t row) {
  return col.type == TypeId::kInt32 ? static_cast<int64_t>(col.i32[row])
                                    : col.i64[row];
}

uint64_t BiasedIntKey(const ColumnData& col, size_t row, bool descending) {
  uint64_t v = static_cast<uint64_t>(IntAt(col, row));
  v ^= uint64_t{1} << 63;
  return descending ? ~v : v;
}

// Stable LSD radix sort of `packed` (in row order) over the low
// `used_bits` bits; fills `order` with the sorted permutation.
void RadixSortPacked(const std::vector<uint64_t>& packed, int used_bits,
                     std::vector<int64_t>* order) {
  size_t n = packed.size();
  std::vector<int64_t> idx(n), idx2(n);
  std::iota(idx.begin(), idx.end(), 0);
  for (int shift = 0; shift < used_bits; shift += 8) {
    size_t count[257] = {0};
    for (size_t i = 0; i < n; ++i) {
      ++count[((packed[idx[i]] >> shift) & 0xFF) + 1];
    }
    for (int d = 0; d < 256; ++d) count[d + 1] += count[d];
    for (size_t i = 0; i < n; ++i) {
      idx2[count[(packed[idx[i]] >> shift) & 0xFF]++] = idx[i];
    }
    idx.swap(idx2);
  }
  order->swap(idx);
}

bool TrySortIntKeys(const ColumnSet& rows, const std::vector<SortKey>& keys,
                    std::vector<int64_t>* order,
                    std::vector<uint64_t>* packed_out = nullptr) {
  if (packed_out != nullptr) packed_out->clear();
  if (keys.empty() || keys.size() > 2) return false;
  for (const SortKey& key : keys) {
    const ColumnData& col = rows.col(key.col);
    if (col.type != TypeId::kInt32 && col.type != TypeId::kInt64) {
      return false;
    }
    if (!col.nulls.empty() &&
        std::any_of(col.nulls.begin(), col.nulls.end(),
                    [](uint8_t n) { return n != 0; })) {
      return false;
    }
  }
  size_t n = rows.num_rows();
  order->resize(n);
  if (n == 0) return true;

  // Per-key value ranges decide whether all keys fit one word.
  struct KeyRange {
    const ColumnData* col;
    bool desc;
    int64_t min, max;
    int bits;
  };
  std::vector<KeyRange> ranges;
  int total_bits = 0;
  for (const SortKey& key : keys) {
    const ColumnData& col = rows.col(key.col);
    int64_t lo = IntAt(col, 0), hi = lo;
    for (size_t i = 1; i < n; ++i) {
      int64_t v = IntAt(col, i);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    int bits = range == 0 ? 0 : std::bit_width(range);
    ranges.push_back(KeyRange{&col, key.descending, lo, hi, bits});
    total_bits += bits;
  }

  if (total_bits <= 64) {
    std::vector<uint64_t> packed(n);
    for (size_t i = 0; i < n; ++i) {
      uint64_t word = 0;
      for (const KeyRange& r : ranges) {
        uint64_t field = r.desc
                             ? static_cast<uint64_t>(r.max) -
                                   static_cast<uint64_t>(IntAt(*r.col, i))
                             : static_cast<uint64_t>(IntAt(*r.col, i)) -
                                   static_cast<uint64_t>(r.min);
        // A key spanning all 64 bits (hashed oids do) is the whole word;
        // shifting by 64 would be undefined.
        word = r.bits == 64 ? field : (word << r.bits) | field;
      }
      packed[i] = word;
    }
    if (n >= 512 && total_bits <= 32) {
      RadixSortPacked(packed, total_bits, order);
    } else {
      struct K1 {
        uint64_t k;
        int64_t idx;
      };
      std::vector<K1> v(n);
      for (size_t i = 0; i < n; ++i) {
        v[i] = K1{packed[i], static_cast<int64_t>(i)};
      }
      std::sort(v.begin(), v.end(), [](const K1& a, const K1& b) {
        return a.k != b.k ? a.k < b.k : a.idx < b.idx;
      });
      for (size_t i = 0; i < n; ++i) (*order)[i] = v[i].idx;
    }
    // The packing is injective, so equal words <=> equal key values;
    // callers can reuse it for group-boundary checks.
    if (packed_out != nullptr) packed_out->swap(packed);
    return true;
  }

  if (keys.size() == 1) {
    const ColumnData& col = rows.col(keys[0].col);
    bool desc = keys[0].descending;
    struct K1 {
      uint64_t k;
      int64_t idx;
    };
    std::vector<K1> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = K1{BiasedIntKey(col, i, desc), static_cast<int64_t>(i)};
    }
    std::sort(v.begin(), v.end(), [](const K1& a, const K1& b) {
      return a.k != b.k ? a.k < b.k : a.idx < b.idx;
    });
    for (size_t i = 0; i < n; ++i) (*order)[i] = v[i].idx;
  } else {
    const ColumnData& c0 = rows.col(keys[0].col);
    const ColumnData& c1 = rows.col(keys[1].col);
    bool d0 = keys[0].descending, d1 = keys[1].descending;
    struct K2 {
      uint64_t k0, k1;
      int64_t idx;
    };
    std::vector<K2> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = K2{BiasedIntKey(c0, i, d0), BiasedIntKey(c1, i, d1),
                static_cast<int64_t>(i)};
    }
    std::sort(v.begin(), v.end(), [](const K2& a, const K2& b) {
      if (a.k0 != b.k0) return a.k0 < b.k0;
      if (a.k1 != b.k1) return a.k1 < b.k1;
      return a.idx < b.idx;
    });
    for (size_t i = 0; i < n; ++i) (*order)[i] = v[i].idx;
  }
  return true;
}

double NumericAt(const ColumnData& col, size_t row) {
  switch (col.type) {
    case TypeId::kInt32:
      return static_cast<double>(col.i32[row]);
    case TypeId::kInt64:
      return static_cast<double>(col.i64[row]);
    case TypeId::kDouble:
      return col.f64[row];
    case TypeId::kString:
      break;
  }
  FOCUS_CHECK(false, "aggregate over non-numeric column");
  return 0;
}

// Output schema of a sorted-run aggregate: the group columns followed by
// one column per spec (types exactly as HashAggregate).
Schema SortedAggSchema(const Schema& in, const std::vector<int>& group_cols,
                       const std::vector<AggSpec>& aggs) {
  std::vector<Column> cols;
  for (int g : group_cols) cols.push_back(in.column(g));
  for (const AggSpec& a : aggs) {
    cols.push_back({a.out_name, SortedAggOutputType(a, in)});
  }
  return Schema(std::move(cols));
}

// Stable sort permutation of `rows` on `keys`. Uses the packed-int fast
// path when the keys are 1-2 NULL-free int columns whose compressed ranges
// fit one 64-bit word — `packed` is then filled with the row-indexed
// injective sort words (equal words <=> equal key values) — and falls back
// to a generic stable comparison sort (`packed` left empty).
void SortPermutation(const ColumnSet& rows, const std::vector<SortKey>& keys,
                     std::vector<int64_t>* order,
                     std::vector<uint64_t>* packed) {
  if (TrySortIntKeys(rows, keys, order, packed)) return;
  order->resize(rows.num_rows());
  std::iota(order->begin(), order->end(), 0);
  std::vector<ColumnPtr> cols;
  for (int i = 0; i < rows.num_columns(); ++i) {
    cols.push_back(rows.col_ptr(i));
  }
  std::stable_sort(order->begin(), order->end(),
                   [&cols, &keys](int64_t a, int64_t b) {
                     return CompareRowsOnKeys(cols, a, b, keys) < 0;
                   });
}

// Emits the (left, right) row-index pairs of the sorted merge join
// lrows ⋈ rrows. Inputs must arrive sorted ascending on their key columns.
// Output is left-major within each key group — the scalar MergeJoin's
// order; right index -1 = NULL padding under left_outer. Appends to li/ri.
void MergeJoinIndices(const ColumnSet& lrows, const ColumnSet& rrows,
                      const std::vector<int>& left_keys,
                      const std::vector<int>& right_keys, bool left_outer,
                      std::vector<int64_t>* li, std::vector<int64_t>* ri) {
  const size_t nl = lrows.num_rows();
  const size_t nr = rrows.num_rows();
  auto key_cmp = [&](size_t l, size_t r) {
    for (size_t k = 0; k < left_keys.size(); ++k) {
      int c = CompareColumnRows(lrows.col(left_keys[k]), l,
                                rrows.col(right_keys[k]), r);
      if (c != 0) return c;
    }
    return 0;
  };
  auto right_eq = [&](size_t a, size_t b) {
    for (int key : right_keys) {
      if (CompareColumnRows(rrows.col(key), a, rrows.col(key), b) != 0) {
        return false;
      }
    }
    return true;
  };
  size_t l = 0, r = 0;
  while (l < nl) {
    if (r >= nr) {
      if (left_outer) {
        li->push_back(static_cast<int64_t>(l));
        ri->push_back(-1);
      }
      ++l;
      continue;
    }
    int c = key_cmp(l, r);
    if (c < 0) {
      if (left_outer) {
        li->push_back(static_cast<int64_t>(l));
        ri->push_back(-1);
      }
      ++l;
    } else if (c > 0) {
      ++r;
    } else {
      size_t rend = r + 1;
      while (rend < nr && right_eq(r, rend)) ++rend;
      // Left-major emission over the right group — the scalar MergeJoin's
      // output order.
      while (l < nl && key_cmp(l, r) == 0) {
        for (size_t rr = r; rr < rend; ++rr) {
          li->push_back(static_cast<int64_t>(l));
          ri->push_back(static_cast<int64_t>(rr));
        }
        ++l;
      }
      r = rend;
    }
  }
}

// True when `packed` sort words decide group boundaries: the group columns
// are exactly the sort-key columns (packing is injective).
bool GroupsMatchSortKeys(const std::vector<int>& group_cols,
                         const std::vector<SortKey>& sort_keys) {
  return group_cols.size() == sort_keys.size() &&
         std::all_of(group_cols.begin(), group_cols.end(), [&](int g) {
           return std::any_of(sort_keys.begin(), sort_keys.end(),
                              [g](const SortKey& k) { return k.col == g; });
         });
}

// Aggregates the sorted runs of `rows` visited through `order` and appends
// one row per group to `out` (schema = SortedAggSchema). Group boundaries
// compare packed words (row-indexed; pass nullptr to compare the group
// columns directly). Sums accumulate in double in visit order — the exact
// arithmetic of BatchSortedAggregate.
void AggregateSortedRuns(const ColumnSet& rows,
                         const std::vector<int64_t>& order,
                         const uint64_t* packed,
                         const std::vector<int>& group_cols,
                         const std::vector<AggSpec>& aggs, ColumnSet* out) {
  auto same_group = [&](size_t a, size_t b) {
    if (packed != nullptr) return packed[a] == packed[b];
    for (int g : group_cols) {
      if (CompareColumnRows(rows.col(g), a, rows.col(g), b) != 0) {
        return false;
      }
    }
    return true;
  };
  std::vector<double> sums(aggs.size());
  std::vector<int64_t> counts(aggs.size());
  const size_t end = order.size();
  size_t pos = 0;
  while (pos < end) {
    size_t rep = static_cast<size_t>(order[pos]);
    sums.assign(aggs.size(), 0.0);
    counts.assign(aggs.size(), 0);
    do {
      size_t row = static_cast<size_t>(order[pos]);
      for (size_t i = 0; i < aggs.size(); ++i) {
        ++counts[i];
        if (aggs[i].kind == AggKind::kSum) {
          sums[i] += NumericAt(rows.col(aggs[i].col), row);
        }
      }
      ++pos;
    } while (pos < end &&
             same_group(static_cast<size_t>(order[pos]), rep));
    for (size_t g = 0; g < group_cols.size(); ++g) {
      out->mutable_col(static_cast<int>(g))
          ->AppendFrom(rows.col(group_cols[g]), rep);
    }
    for (size_t i = 0; i < aggs.size(); ++i) {
      ColumnData* col =
          out->mutable_col(static_cast<int>(group_cols.size() + i));
      switch (aggs[i].kind) {
        case AggKind::kCount:
          col->i64.push_back(counts[i]);
          break;
        case AggKind::kSum:
          // Accumulate-in-double then cast, exactly like HashAggregate.
          if (rows.col(aggs[i].col).type == TypeId::kDouble) {
            col->f64.push_back(sums[i]);
          } else {
            col->i64.push_back(static_cast<int64_t>(sums[i]));
          }
          break;
        default:
          FOCUS_CHECK(false, "unsupported sorted aggregate");
      }
    }
  }
}

}  // namespace

Result<bool> BatchOperator::NextBatch(Batch* out) {
  if (op_name_ == nullptr) return DoNextBatch(out);
  if (batches_total_ == nullptr) {
    obs::MetricsRegistry* reg = &obs::MetricsRegistry::Global();
    batches_total_ = reg->GetCounter("focus_sql_batches_total");
    rows_per_batch_ = reg->GetHistogram("focus_sql_rows_per_batch");
    self_micros_ = reg->GetCounter("focus_sql_batch_op_micros_total",
                                   {{"op", op_name_}});
  }
  // Self time = my inclusive time minus my children's inclusive time,
  // tracked with a per-thread stack (children's NextBatch calls nest
  // inside this one).
  thread_local std::vector<uint64_t> child_micros_stack;
  child_micros_stack.push_back(0);
  Stopwatch timer;
  Result<bool> more = DoNextBatch(out);
  uint64_t total = static_cast<uint64_t>(timer.ElapsedMicros());
  uint64_t children = child_micros_stack.back();
  child_micros_stack.pop_back();
  if (!child_micros_stack.empty()) child_micros_stack.back() += total;
  self_micros_->Add(total > children ? total - children : 0);
  if (more.ok() && more.value()) {
    batches_total_->Inc();
    rows_per_batch_->Observe(out->num_rows());
  }
  return more;
}

// ---------------------------------------------------------------- scan --

BatchTableScan::BatchTableScan(const Table* table, std::vector<int> cols,
                               int batch_rows)
    : BatchOperator("table_scan"),
      table_(table),
      cols_(std::move(cols)),
      batch_rows_(batch_rows) {
  if (cols_.empty()) {
    schema_ = table_->schema();
    for (int i = 0; i < schema_.num_columns(); ++i) cols_.push_back(i);
  } else {
    std::vector<Column> pruned;
    pruned.reserve(cols_.size());
    for (int c : cols_) pruned.push_back(table_->schema().column(c));
    schema_ = Schema(std::move(pruned));
  }
}

Status BatchTableScan::Open() {
  it_.emplace(table_->Scan());
  return Status::OK();
}

Result<bool> BatchTableScan::DoNextBatch(Batch* out) {
  out->Reset();
  std::vector<ColumnPtr> cols;
  cols.reserve(cols_.size());
  for (const Column& c : schema_.columns()) {
    cols.push_back(NewColumn(c.type));
    cols.back()->Reserve(batch_rows_);
  }
  size_t n = it_->Visit(
      static_cast<size_t>(batch_rows_),
      [&](const storage::Rid&, const RecordView& row) {
        for (size_t i = 0; i < cols_.size(); ++i) {
          ColumnData* col = cols[i].get();
          switch (col->type) {
            case TypeId::kInt32:
              col->i32.push_back(row.GetInt32(cols_[i]));
              break;
            case TypeId::kInt64:
              col->i64.push_back(row.GetInt64(cols_[i]));
              break;
            case TypeId::kDouble:
              col->f64.push_back(row.GetDouble(cols_[i]));
              break;
            case TypeId::kString:
              col->arena.append(row.GetString(cols_[i]));
              col->str_offsets.push_back(
                  static_cast<uint32_t>(col->arena.size()));
              break;
          }
        }
        return Status::OK();
      });
  FOCUS_RETURN_IF_ERROR(it_->status());
  if (n == 0) return false;
  for (ColumnPtr& c : cols) out->AddColumn(std::move(c));
  return true;
}

// -------------------------------------------------------------- source --

namespace {

// Emits the next batch_rows slice of `set` from `*pos`. A set that fits
// one batch is forwarded zero-copy.
bool NextSlice(const ColumnSet& set, int batch_rows, size_t* pos,
               Batch* out) {
  out->Reset();
  size_t n = set.num_rows();
  if (*pos >= n) return false;
  if (*pos == 0 && n <= static_cast<size_t>(batch_rows)) {
    for (int i = 0; i < set.num_columns(); ++i) out->AddColumn(set.col_ptr(i));
    *pos = n;
    return true;
  }
  size_t end = std::min(n, *pos + static_cast<size_t>(batch_rows));
  for (int i = 0; i < set.num_columns(); ++i) {
    ColumnPtr col = NewColumn(set.col(i).type);
    col->Reserve(end - *pos);
    col->AppendRange(set.col(i), *pos, end);
    out->AddColumn(std::move(col));
  }
  *pos = end;
  return true;
}

}  // namespace

Result<bool> BatchSource::DoNextBatch(Batch* out) {
  return NextSlice(*set_, batch_rows_, &pos_, out);
}

Status BatchMaterialize::Open() {
  pos_ = 0;
  if (fill_ == nullptr) return Status::OK();
  ColumnSet staged;
  FOCUS_RETURN_IF_ERROR(CollectInto(fill_.get(), &staged));
  *set_ = std::move(staged);
  fill_.reset();
  return Status::OK();
}

Result<bool> BatchMaterialize::DoNextBatch(Batch* out) {
  return NextSlice(*set_, batch_rows_, &pos_, out);
}

// ------------------------------------------------------------ adapters --

Result<bool> Vectorize::DoNextBatch(Batch* out) {
  out->Reset();
  const Schema& s = child_->schema();
  int n = 0;
  while (n < batch_rows_) {
    FOCUS_ASSIGN_OR_RETURN(bool more, child_->Next(&row_));
    if (!more) break;
    out->AppendTuple(s, row_);
    ++n;
  }
  return n > 0;
}

Status Devectorize::Open() {
  pos_ = 0;
  done_ = false;
  batch_.Reset();
  return child_->Open();
}

Result<bool> Devectorize::Next(Tuple* out) {
  while (pos_ >= batch_.num_rows()) {
    if (done_) return false;
    FOCUS_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&batch_));
    if (!more) {
      done_ = true;
      return false;
    }
    pos_ = 0;
  }
  batch_.ToTuple(pos_++, out);
  return true;
}

// -------------------------------------------------------------- filter --

Result<bool> BatchFilter::DoNextBatch(Batch* out) {
  out->Reset();
  for (;;) {
    FOCUS_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&in_));
    if (!more) return false;
    sel_.clear();
    pred_(in_, &sel_);
    if (sel_.empty()) continue;  // nothing qualified; pull the next batch
    if (sel_.size() == in_.num_rows()) {
      // Everything qualified: forward the columns zero-copy.
      for (int i = 0; i < in_.num_columns(); ++i) {
        out->AddColumn(in_.col_ptr(i));
      }
      return true;
    }
    for (int i = 0; i < in_.num_columns(); ++i) {
      out->AddColumn(Gather(in_.col(i), sel_));
    }
    return true;
  }
}

// ------------------------------------------------------------- project --

BatchExpr BatchExpr::Passthrough(std::string name, TypeId type, int col) {
  return BatchExpr{std::move(name), type,
                   [col](const Batch& in) { return in.col_ptr(col); }};
}

BatchProject::BatchProject(BatchOperatorPtr child,
                           std::vector<BatchExpr> exprs)
    : BatchOperator("project"),
      child_(std::move(child)),
      exprs_(std::move(exprs)) {
  std::vector<Column> cols;
  cols.reserve(exprs_.size());
  for (const BatchExpr& e : exprs_) cols.push_back({e.name, e.type});
  schema_ = Schema(std::move(cols));
}

Result<bool> BatchProject::DoNextBatch(Batch* out) {
  out->Reset();
  FOCUS_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&in_));
  if (!more) return false;
  for (const BatchExpr& e : exprs_) out->AddColumn(e.eval(in_));
  return true;
}

// ---------------------------------------------------------------- sort --

Status BatchSort::Open() {
  rows_ = ColumnSet(child_->schema());
  order_.clear();
  pos_ = 0;
  loaded_ = false;
  return child_->Open();
}

void BatchSort::Close() {
  rows_ = ColumnSet();
  order_.clear();
  child_->Close();
}

Result<bool> BatchSort::DoNextBatch(Batch* out) {
  out->Reset();
  if (!loaded_) {
    loaded_ = true;
    Batch b;
    for (;;) {
      FOCUS_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&b));
      if (!more) break;
      rows_.AppendBatch(b);
    }
    SortPermutation(rows_, keys_, &order_, &packed_);
  }
  if (pos_ >= order_.size()) return false;
  size_t end = std::min(order_.size(), pos_ + static_cast<size_t>(batch_rows_));
  for (int i = 0; i < rows_.num_columns(); ++i) {
    out->AddColumn(Gather(rows_.col(i), order_.data() + pos_, end - pos_));
  }
  pos_ = end;
  return true;
}

// ---------------------------------------------------------- merge join --

BatchMergeJoin::BatchMergeJoin(BatchOperatorPtr left, BatchOperatorPtr right,
                               std::vector<int> left_keys,
                               std::vector<int> right_keys, bool left_outer,
                               int batch_rows)
    : BatchOperator("merge_join"),
      left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      left_outer_(left_outer),
      batch_rows_(batch_rows),
      schema_(Schema::Concat(left_->schema(), right_->schema())) {}

Status BatchMergeJoin::Open() {
  lrows_ = ColumnSet(left_->schema());
  rrows_ = ColumnSet(right_->schema());
  li_.clear();
  ri_.clear();
  pos_ = 0;
  merged_ = false;
  FOCUS_RETURN_IF_ERROR(left_->Open());
  return right_->Open();
}

void BatchMergeJoin::Close() {
  lrows_ = ColumnSet();
  rrows_ = ColumnSet();
  li_.clear();
  ri_.clear();
  left_->Close();
  right_->Close();
}

Status BatchMergeJoin::Merge() {
  Batch b;
  for (;;) {
    FOCUS_ASSIGN_OR_RETURN(bool more, left_->NextBatch(&b));
    if (!more) break;
    lrows_.AppendBatch(b);
  }
  for (;;) {
    FOCUS_ASSIGN_OR_RETURN(bool more, right_->NextBatch(&b));
    if (!more) break;
    rrows_.AppendBatch(b);
  }
  MergeJoinIndices(lrows_, rrows_, left_keys_, right_keys_, left_outer_, &li_,
                   &ri_);
  return Status::OK();
}

Result<bool> BatchMergeJoin::DoNextBatch(Batch* out) {
  out->Reset();
  if (!merged_) {
    merged_ = true;
    FOCUS_RETURN_IF_ERROR(Merge());
  }
  if (pos_ >= li_.size()) return false;
  size_t end = std::min(li_.size(), pos_ + static_cast<size_t>(batch_rows_));
  size_t n = end - pos_;
  for (int i = 0; i < lrows_.num_columns(); ++i) {
    out->AddColumn(Gather(lrows_.col(i), li_.data() + pos_, n));
  }
  for (int i = 0; i < rrows_.num_columns(); ++i) {
    out->AddColumn(Gather(rrows_.col(i), ri_.data() + pos_, n));
  }
  pos_ = end;
  return true;
}

// ---------------------------------------------------------- cross join --

BatchCrossJoin::BatchCrossJoin(BatchOperatorPtr left, BatchOperatorPtr right,
                               int batch_rows)
    : BatchOperator("cross_join"),
      left_(std::move(left)),
      right_(std::move(right)),
      batch_rows_(batch_rows),
      schema_(Schema::Concat(left_->schema(), right_->schema())) {}

Status BatchCrossJoin::Open() {
  lrows_ = ColumnSet(left_->schema());
  rrows_ = ColumnSet(right_->schema());
  pos_ = 0;
  loaded_ = false;
  FOCUS_RETURN_IF_ERROR(left_->Open());
  return right_->Open();
}

void BatchCrossJoin::Close() {
  lrows_ = ColumnSet();
  rrows_ = ColumnSet();
  left_->Close();
  right_->Close();
}

Result<bool> BatchCrossJoin::DoNextBatch(Batch* out) {
  out->Reset();
  if (!loaded_) {
    loaded_ = true;
    Batch b;
    for (;;) {
      FOCUS_ASSIGN_OR_RETURN(bool more, left_->NextBatch(&b));
      if (!more) break;
      lrows_.AppendBatch(b);
    }
    for (;;) {
      FOCUS_ASSIGN_OR_RETURN(bool more, right_->NextBatch(&b));
      if (!more) break;
      rrows_.AppendBatch(b);
    }
  }
  size_t nr = rrows_.num_rows();
  size_t total = lrows_.num_rows() * nr;
  if (pos_ >= total) return false;
  size_t end = std::min(total, pos_ + static_cast<size_t>(batch_rows_));
  size_t n = end - pos_;
  std::vector<int64_t> li(n), ri(n);
  for (size_t k = 0; k < n; ++k) {
    li[k] = static_cast<int64_t>((pos_ + k) / nr);
    ri[k] = static_cast<int64_t>((pos_ + k) % nr);
  }
  for (int i = 0; i < lrows_.num_columns(); ++i) {
    out->AddColumn(Gather(lrows_.col(i), li));
  }
  for (int i = 0; i < rrows_.num_columns(); ++i) {
    out->AddColumn(Gather(rrows_.col(i), ri));
  }
  pos_ = end;
  return true;
}

// ---------------------------------------------------- sorted aggregate --

BatchSortedAggregate::BatchSortedAggregate(BatchOperatorPtr child,
                                           std::vector<int> group_cols,
                                           std::vector<AggSpec> aggs,
                                           int batch_rows)
    : BatchOperator("sorted_aggregate"),
      child_(std::move(child)),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)),
      batch_rows_(batch_rows) {
  schema_ = SortedAggSchema(child_->schema(), group_cols_, aggs_);
}

Status BatchSortedAggregate::Open() {
  in_pos_ = 0;
  in_valid_ = false;
  input_done_ = false;
  group_open_ = false;
  return child_->Open();
}

void BatchSortedAggregate::EmitGroup(Batch* out) {
  for (size_t g = 0; g < group_cols_.size(); ++g) {
    out->mutable_col(static_cast<int>(g))->AppendValue(group_key_[g]);
  }
  const Schema& in = child_->schema();
  for (size_t i = 0; i < aggs_.size(); ++i) {
    ColumnData* col = out->mutable_col(static_cast<int>(group_cols_.size() + i));
    switch (aggs_[i].kind) {
      case AggKind::kCount:
        col->i64.push_back(counts_[i]);
        break;
      case AggKind::kSum:
        // Accumulate-in-double then cast, exactly like HashAggregate.
        if (in.column(aggs_[i].col).type == TypeId::kDouble) {
          col->f64.push_back(sums_[i]);
        } else {
          col->i64.push_back(static_cast<int64_t>(sums_[i]));
        }
        break;
      default:
        FOCUS_CHECK(false, "unsupported sorted aggregate");
    }
  }
  group_open_ = false;
}

Result<bool> BatchSortedAggregate::DoNextBatch(Batch* out) {
  out->Reset();
  for (const Column& c : schema_.columns()) {
    ColumnPtr col = NewColumn(c.type);
    out->AddColumn(std::move(col));
  }
  while (out->num_rows() < static_cast<size_t>(batch_rows_)) {
    if (!in_valid_) {
      if (input_done_) break;
      FOCUS_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&in_));
      if (!more) {
        input_done_ = true;
        break;
      }
      in_pos_ = 0;
      in_valid_ = in_.num_rows() > 0;
      continue;
    }
    // Group boundary?
    bool boundary = false;
    if (group_open_) {
      for (size_t g = 0; g < group_cols_.size(); ++g) {
        Value v = in_.ValueAt(in_pos_, group_cols_[g]);
        if (group_key_[g].Compare(v) != 0) {
          boundary = true;
          break;
        }
      }
    }
    if (boundary) {
      EmitGroup(out);
      continue;  // re-examine the same row as the new group's first
    }
    if (!group_open_) {
      group_open_ = true;
      group_key_.clear();
      for (int g : group_cols_) group_key_.push_back(in_.ValueAt(in_pos_, g));
      sums_.assign(aggs_.size(), 0.0);
      counts_.assign(aggs_.size(), 0);
    }
    for (size_t i = 0; i < aggs_.size(); ++i) {
      ++counts_[i];
      if (aggs_[i].kind == AggKind::kSum) {
        sums_[i] += NumericAt(in_.col(aggs_[i].col), in_pos_);
      }
    }
    if (++in_pos_ >= in_.num_rows()) in_valid_ = false;
  }
  if (input_done_ && !in_valid_ && group_open_ &&
      out->num_rows() < static_cast<size_t>(batch_rows_)) {
    EmitGroup(out);
  }
  return out->num_rows() > 0;
}

// ---------------------------------------------------- sort + aggregate --

BatchSortAggregate::BatchSortAggregate(BatchOperatorPtr child,
                                       std::vector<SortKey> sort_keys,
                                       std::vector<int> group_cols,
                                       std::vector<AggSpec> aggs,
                                       int batch_rows)
    : BatchOperator("sort_aggregate"),
      child_(std::move(child)),
      sort_keys_(std::move(sort_keys)),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)),
      batch_rows_(batch_rows),
      schema_(SortedAggSchema(child_->schema(), group_cols_, aggs_)) {}

Status BatchSortAggregate::Open() {
  rows_ = ColumnSet(child_->schema());
  agg_ = ColumnSet();
  pos_ = 0;
  loaded_ = false;
  return child_->Open();
}

void BatchSortAggregate::Close() {
  rows_ = ColumnSet();
  agg_ = ColumnSet();
  child_->Close();
}

Result<bool> BatchSortAggregate::DoNextBatch(Batch* out) {
  out->Reset();
  if (!loaded_) {
    loaded_ = true;
    Batch b;
    for (;;) {
      FOCUS_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&b));
      if (!more) break;
      rows_.AppendBatch(b);
    }
    std::vector<int64_t> order;
    std::vector<uint64_t> packed;
    SortPermutation(rows_, sort_keys_, &order, &packed);
    // When the sort produced injective packed keys and the group columns
    // are exactly the sort key columns, one word compare decides the group
    // boundary; otherwise compare the group columns directly.
    bool use_packed =
        !packed.empty() && GroupsMatchSortKeys(group_cols_, sort_keys_);
    agg_ = ColumnSet(schema_);
    AggregateSortedRuns(rows_, order, use_packed ? packed.data() : nullptr,
                        group_cols_, aggs_, &agg_);
    rows_ = ColumnSet();
  }
  size_t n = agg_.num_rows();
  if (pos_ >= n) return false;
  size_t end = std::min(n, pos_ + static_cast<size_t>(batch_rows_));
  for (int i = 0; i < agg_.num_columns(); ++i) {
    ColumnPtr col = NewColumn(agg_.col(i).type);
    col->Reserve(end - pos_);
    col->AppendRange(agg_.col(i), pos_, end);
    out->AddColumn(std::move(col));
  }
  pos_ = end;
  return true;
}

// ------------------------------------------------------------- helpers --

Status CollectInto(BatchOperator* op, ColumnSet* out) {
  *out = ColumnSet(op->schema());
  FOCUS_RETURN_IF_ERROR(op->Open());
  Batch b;
  for (;;) {
    FOCUS_ASSIGN_OR_RETURN(bool more, op->NextBatch(&b));
    if (!more) break;
    out->AppendBatch(b);
  }
  op->Close();
  return Status::OK();
}

}  // namespace focus::sql
