#include "src/match/match_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/invariant.h"

namespace slp::match {

namespace {

// Grid resolution. The start is ~sqrt(n) cells per axis, capped at
// kMaxGrid: O(1) expected candidates per cell for small rectangles. A
// rectangle spanning a fraction w of both axes is copied into ~(w·g)²
// cells, though, so wide rectangles on a fine grid blow the CSR up (100k
// grid subscriptions at g = 317 hold ~1,400 entries each). The build then
// coarsens g by 3/4 per step while the CSR holds more than
// kMaxEntriesPerRect entries per rectangle (g = 1 holds exactly one), and
// past that while coarsening does not lengthen the mean cell list — the
// expected candidates of a uniform probe — which it never does for
// rectangles spanning the whole box. A coarser grid only lengthens
// candidate lists; every probe still tests exact containment, so answers
// and their order do not depend on g.
constexpr int kMaxGrid = 512;
constexpr uint64_t kMaxEntriesPerRect = 16;

// floor(t) clamped to [0, cells). Written in the positive form so a NaN t
// (0·inf on an unbounded axis) lands in cell 0 and no value outside int
// range reaches the cast; truncation equals floor for t >= 1.
int ClampCell(double t, int cells) {
  if (!(t >= 1)) return 0;
  return t < cells ? static_cast<int>(t) : cells - 1;
}

}  // namespace

MatchIndex::Builder& MatchIndex::Builder::Add(int owner,
                                              const geo::Rectangle& rect) {
  SLP_DCHECK(owner >= 0 && owner < num_owners_);
  SLP_DCHECK(rect.dim() == 2);
  rects_.push_back(OwnedRect{owner, rect});
  return *this;
}

MatchIndex MatchIndex::Builder::Build() && {
  return BuildIndex(rects_, num_owners_);
}

int MatchIndex::CellX(double x) const {
  // inv_wx_ == 0 (flat axis or empty index) maps everything to cell 0.
  return ClampCell((x - min_x_) * inv_wx_, gx_);
}

int MatchIndex::CellY(double y) const {
  return ClampCell((y - min_y_) * inv_wy_, gy_);
}

geo::Rectangle MatchIndex::rect(int k) const {
  SLP_DCHECK(k >= 0 && k < num_rects());
  return geo::Rectangle({lo_x_[k], lo_y_[k]}, {hi_x_[k], hi_y_[k]});
}

void MatchIndex::Probe(double x, double y, BitSet* owners,
                       std::vector<int32_t>* matched) const {
  SLP_DCHECK(owners->size() >= num_owners_);
  if (!InBox(x, y)) return;
  int count = 0;
  const int32_t* ids = CellBegin(CellX(x), CellY(y), &count);
  for (int i = 0; i < count; ++i) {
    const int32_t k = ids[i];
    if (!Contains(k, x, y)) continue;
    const int32_t o = owner_[k];
    if (!owners->Test(o)) {
      owners->Set(o);
      matched->push_back(o);
    }
  }
}

int MatchIndex::CountContaining(double x, double y) const {
  if (!InBox(x, y)) return 0;
  int count = 0;
  const int32_t* ids = CellBegin(CellX(x), CellY(y), &count);
  int hits = 0;
  for (int i = 0; i < count; ++i) {
    const int32_t k = ids[i];
    hits += Contains(k, x, y);
  }
  return hits;
}

void MatchIndex::AppendContaining(double x, double y,
                                  std::vector<int32_t>* out) const {
  if (!InBox(x, y)) return;
  int count = 0;
  const int32_t* ids = CellBegin(CellX(x), CellY(y), &count);
  for (int i = 0; i < count; ++i) {
    const int32_t k = ids[i];
    if (Contains(k, x, y)) {
      out->push_back(owner_[k]);
    }
  }
}

void MatchIndex::AppendContainingRect(const geo::Rectangle& q,
                                      std::vector<int32_t>* out) const {
  SLP_DCHECK(q.dim() == 2);
  const double qlx = q.lo(0), qhx = q.hi(0), qly = q.lo(1), qhy = q.hi(1);
  if (!InBox(qlx, qly) || !InBox(qhx, qhy)) return;
  int count = 0;
  const int32_t* ids = CellBegin(CellX(qlx), CellY(qly), &count);
  for (int i = 0; i < count; ++i) {
    const int32_t k = ids[i];
    if (lo_x_[k] <= qlx && qhx <= hi_x_[k] && lo_y_[k] <= qly &&
        qhy <= hi_y_[k]) {
      out->push_back(owner_[k]);
    }
  }
}

bool MatchIndex::AnyContains(double x, double y) const {
  if (!InBox(x, y)) return false;
  int count = 0;
  const int32_t* ids = CellBegin(CellX(x), CellY(y), &count);
  for (int i = 0; i < count; ++i) {
    const int32_t k = ids[i];
    if (Contains(k, x, y)) {
      return true;
    }
  }
  return false;
}

MatchIndex BuildIndex(const std::vector<OwnedRect>& rects, int num_owners) {
  SLP_DCHECK(num_owners >= 0);
  MatchIndex idx;
  idx.num_owners_ = num_owners;
  const int n = static_cast<int>(rects.size());
  if (n == 0) {
    idx.cell_start_.assign(2, 0);
    return idx;
  }

  idx.lo_x_.resize(n);
  idx.hi_x_.resize(n);
  idx.lo_y_.resize(n);
  idx.hi_y_.resize(n);
  idx.owner_.resize(n);
  // Bounding box. std::min/max keep their first argument against a NaN
  // bound, so a NaN rectangle (which contains nothing) never widens it.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  idx.min_x_ = idx.min_y_ = kInf;
  idx.max_x_ = idx.max_y_ = -kInf;
  for (int k = 0; k < n; ++k) {
    const geo::Rectangle& r = rects[k].rect;
    SLP_DCHECK(r.dim() == 2);
    SLP_DCHECK(rects[k].owner >= 0 && rects[k].owner < num_owners);
    idx.lo_x_[k] = r.lo(0);
    idx.hi_x_[k] = r.hi(0);
    idx.lo_y_[k] = r.lo(1);
    idx.hi_y_[k] = r.hi(1);
    idx.owner_[k] = rects[k].owner;
    idx.min_x_ = std::min(idx.min_x_, r.lo(0));
    idx.max_x_ = std::max(idx.max_x_, r.hi(0));
    idx.min_y_ = std::min(idx.min_y_, r.lo(1));
    idx.max_y_ = std::max(idx.max_y_, r.hi(1));
  }

  const auto set_grid = [&idx](int g) {
    idx.inv_wx_ = idx.max_x_ > idx.min_x_ ? g / (idx.max_x_ - idx.min_x_) : 0;
    idx.inv_wy_ = idx.max_y_ > idx.min_y_ ? g / (idx.max_y_ - idx.min_y_) : 0;
    idx.gx_ = idx.inv_wx_ == 0 ? 1 : g;
    idx.gy_ = idx.inv_wy_ == 0 ? 1 : g;
  };
  const auto cell_entries = [&idx, n] {
    uint64_t total = 0;
    for (int k = 0; k < n; ++k) {
      const int wx = idx.CellX(idx.hi_x_[k]) - idx.CellX(idx.lo_x_[k]) + 1;
      const int wy = idx.CellY(idx.hi_y_[k]) - idx.CellY(idx.lo_y_[k]) + 1;
      total += static_cast<uint64_t>(std::max(wx, 0)) * std::max(wy, 0);
    }
    return total;
  };
  const auto grid_cells = [&idx] {
    return static_cast<uint64_t>(idx.gx_) * idx.gy_;
  };
  int g = std::min(kMaxGrid, static_cast<int>(std::ceil(std::sqrt(n))));
  set_grid(g);
  uint64_t entries = cell_entries();
  while (g > 1) {
    const uint64_t cells = grid_cells();
    const int coarser = g * 3 / 4;
    set_grid(coarser);
    const uint64_t coarser_entries = cell_entries();
    // Within budget, coarsen only if the mean cell list does not grow.
    if (entries <= kMaxEntriesPerRect * n &&
        coarser_entries * cells > entries * grid_cells()) {
      set_grid(g);
      break;
    }
    g = coarser;
    entries = coarser_entries;
  }

  // CSR fill, two passes: count entries per cell, then place rect ids.
  // Rect k covers the cell ranges [CellX(lo), CellX(hi)] x [CellY(lo),
  // CellY(hi)]; CellX/CellY are monotone, so every probe coordinate inside
  // the rectangle maps into that range.
  const size_t num_cells = static_cast<size_t>(idx.gx_) * idx.gy_;
  idx.cell_start_.assign(num_cells + 1, 0);
  for (int k = 0; k < n; ++k) {
    const int cx0 = idx.CellX(idx.lo_x_[k]), cx1 = idx.CellX(idx.hi_x_[k]);
    const int cy0 = idx.CellY(idx.lo_y_[k]), cy1 = idx.CellY(idx.hi_y_[k]);
    for (int cy = cy0; cy <= cy1; ++cy) {
      for (int cx = cx0; cx <= cx1; ++cx) {
        ++idx.cell_start_[static_cast<size_t>(cy) * idx.gx_ + cx + 1];
      }
    }
  }
  for (size_t c = 0; c < num_cells; ++c) {
    idx.cell_start_[c + 1] += idx.cell_start_[c];
  }
  idx.cell_rects_.resize(idx.cell_start_[num_cells]);
  std::vector<uint32_t> fill(idx.cell_start_.begin(),
                             idx.cell_start_.end() - 1);
  for (int k = 0; k < n; ++k) {
    const int cx0 = idx.CellX(idx.lo_x_[k]), cx1 = idx.CellX(idx.hi_x_[k]);
    const int cy0 = idx.CellY(idx.lo_y_[k]), cy1 = idx.CellY(idx.hi_y_[k]);
    for (int cy = cy0; cy <= cy1; ++cy) {
      for (int cx = cx0; cx <= cx1; ++cx) {
        idx.cell_rects_[fill[static_cast<size_t>(cy) * idx.gx_ + cx]++] = k;
      }
    }
  }
  // Ids land in each cell in ascending k already (the fill loop visits k
  // in order), so probe answers are deterministic by construction.
  return idx;
}

}  // namespace slp::match
