#include "src/msm/block_cache.h"

#include <algorithm>
#include <cassert>

namespace vafs {

std::vector<uint8_t>* PagePool::Acquire(int64_t bytes) {
  const size_t want = static_cast<size_t>(bytes);
  Page* page = nullptr;
  for (size_t i = 0; i < free_.size(); ++i) {
    if (free_[i]->bytes.capacity() >= want) {
      page = free_[i];
      free_.erase(free_.begin() + static_cast<ptrdiff_t>(i));
      ++recycled_;
      break;
    }
  }
  if (page == nullptr) {
    auto fresh = std::make_unique<Page>();
    page = fresh.get();
    pages_.emplace(&page->bytes, std::move(fresh));
    ++created_;
  }
  page->bytes.assign(want, 0);
  page->handed_out = true;
  ++outstanding_;
  return &page->bytes;
}

void PagePool::Release(std::vector<uint8_t>* page) {
  auto it = pages_.find(page);
  if (it == pages_.end() || !it->second->handed_out) {
    assert(false && "released a page the pool does not own");
    return;
  }
  it->second->handed_out = false;
  --outstanding_;
  free_.push_back(it->second.get());
}

BlockCache::BlockCache(BlockCacheOptions options) : options_(options) {}

bool BlockCache::Lookup(int64_t sector, int64_t sectors) {
  if (window_lookups_ >= std::max<int64_t>(options_.hit_window, 2)) {
    // Exponential decay: old rounds fade so a sharing collapse shows up
    // within one window instead of being averaged away.
    window_lookups_ /= 2;
    window_hits_ /= 2;
  }
  ++window_lookups_;
  auto it = entries_.find(sector);
  if (it == entries_.end() || it->second.sectors != sectors) {
    ++stats_.misses;
    return false;
  }
  lru_.splice(lru_.end(), lru_, it->second.lru);  // most recent; no node churn
  ++stats_.hits;
  ++window_hits_;
  return true;
}

bool BlockCache::Contains(int64_t sector, int64_t sectors) const {
  auto it = entries_.find(sector);
  return it != entries_.end() && it->second.sectors == sectors;
}

void BlockCache::Evict(std::map<int64_t, Entry>::iterator it) {
  stats_.resident_bytes -= it->second.bytes;
  --stats_.resident_entries;
  // Keep both nodes for the next Insert: a full cache then churns without
  // touching the allocator. Spares never exceed the peak resident count.
  spare_lru_.splice(spare_lru_.end(), lru_, it->second.lru);
  spare_entries_.push_back(entries_.extract(it));
}

bool BlockCache::MakeRoom(int64_t bytes) {
  // Two passes over LRU order: plain entries first, interval-biased ones
  // only when nothing else is left — a biased entry's next hit is another
  // stream's scheduled read, the most valuable bytes in the cache.
  for (const bool allow_biased : {false, true}) {
    auto lru_it = lru_.begin();
    while (stats_.resident_bytes + bytes > options_.capacity_bytes && lru_it != lru_.end()) {
      auto entry = entries_.find(*lru_it);
      assert(entry != entries_.end());
      ++lru_it;  // advance before a potential erase
      if (entry->second.pins > 0 || (entry->second.biased && !allow_biased)) {
        continue;
      }
      Evict(entry);
      ++stats_.evictions;
    }
    if (stats_.resident_bytes + bytes <= options_.capacity_bytes) {
      return true;
    }
  }
  return false;
}

void BlockCache::Insert(int64_t sector, int64_t sectors, int64_t bytes, bool interval_biased) {
  if (!enabled() || bytes > options_.capacity_bytes) {
    return;
  }
  auto existing = entries_.find(sector);
  if (existing != entries_.end()) {
    // Re-read of a resident extent: refresh recency and bias only.
    existing->second.biased = existing->second.biased || interval_biased;
    lru_.splice(lru_.end(), lru_, existing->second.lru);
    return;
  }
  if (!MakeRoom(bytes)) {
    return;  // everything resident is pinned; drop the insert
  }
  Entry entry;
  entry.sector = sector;
  entry.sectors = sectors;
  entry.bytes = bytes;
  entry.biased = interval_biased;
  if (spare_lru_.empty()) {
    lru_.push_back(sector);
  } else {
    lru_.splice(lru_.end(), spare_lru_, spare_lru_.begin());
    lru_.back() = sector;
  }
  entry.lru = std::prev(lru_.end());
  if (spare_entries_.empty()) {
    entries_.emplace(sector, entry);
  } else {
    std::map<int64_t, Entry>::node_type node = std::move(spare_entries_.back());
    spare_entries_.pop_back();
    node.key() = sector;
    node.mapped() = entry;
    entries_.insert(std::move(node));
  }
  stats_.resident_bytes += bytes;
  ++stats_.resident_entries;
  ++stats_.insertions;
}

bool BlockCache::Pin(int64_t sector, int64_t sectors) {
  auto it = entries_.find(sector);
  if (it == entries_.end() || it->second.sectors != sectors) {
    return false;
  }
  if (it->second.pins == 0) {
    ++stats_.pinned_entries;
  }
  ++it->second.pins;
  return true;
}

void BlockCache::Unpin(int64_t sector, int64_t sectors) {
  auto it = entries_.find(sector);
  if (it == entries_.end() || it->second.sectors != sectors || it->second.pins == 0) {
    return;
  }
  if (--it->second.pins == 0) {
    --stats_.pinned_entries;
  }
}

int64_t BlockCache::InvalidateRange(int64_t sector, int64_t sectors) {
  const int64_t end = sector + sectors;
  const int64_t resident_before = stats_.resident_entries;
  int64_t dropped = 0;
  // Entries are keyed by start sector; one starting before `sector` can
  // still overlap, so back up one position before scanning forward.
  auto it = entries_.lower_bound(sector);
  if (it != entries_.begin()) {
    --it;
  }
  while (it != entries_.end() && it->first < end) {
    if (it->first + it->second.sectors > sector) {
      if (it->second.pins > 0) {
        --stats_.pinned_entries;  // invalidation outranks pinning
      }
      Evict(it++);
      ++dropped;
    } else {
      ++it;
    }
  }
  stats_.invalidated_entries += dropped;
  if (dropped > 0 && resident_before > 0) {
    // The window's hits were earned against entries that may just have
    // vanished: scale them down by the surviving fraction so the rate
    // reflects what is still resident instead of a stale storm-ago view.
    window_hits_ = (window_hits_ * stats_.resident_entries) / resident_before;
  }
  return dropped;
}

void BlockCache::InvalidateAll() {
  stats_.invalidated_entries += stats_.resident_entries;
  stats_.resident_bytes = 0;
  stats_.resident_entries = 0;
  stats_.pinned_entries = 0;
  entries_.clear();
  lru_.clear();
  // Nothing the window measured survives; the rate restarts from zero.
  window_hits_ = 0;
  window_lookups_ = 0;
}

double BlockCache::RecentHitRate() const {
  if (window_lookups_ == 0) {
    return 0.0;
  }
  return static_cast<double>(window_hits_) / static_cast<double>(window_lookups_);
}

}  // namespace vafs
