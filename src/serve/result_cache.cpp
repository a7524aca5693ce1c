#include "serve/result_cache.h"

#include <algorithm>

namespace xbfs::serve {

ResultCache::ResultCache(std::size_t capacity, unsigned shards) {
  shards = std::max(1u, shards);
  if (capacity != 0) {
    // Ceil-divide so the aggregate capacity is never below the request.
    shard_capacity_ = (capacity + shards - 1) / shards;
  }
  shards_.reserve(shards);
  for (unsigned i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

CachedResult ResultCache::get(std::uint64_t graph_fp, core::AlgoKind algo,
                              std::uint64_t params_hash,
                              graph::vid_t source) {
  const Key k{graph_fp, params_hash, source, algo};
  Key stale{};
  bool reap = false;
  {
    Shard& s = shard_of(k);
    std::lock_guard<std::mutex> lk(s.mu);
    const auto it = s.map.find(k);
    if (it != s.map.end()) {
      ++s.hits;
      s.lru.splice(s.lru.begin(), s.lru, it->second);  // bump to MRU
      return it->second->second;
    }
    ++s.misses;
    // Lazy reap: a miss for the live fingerprint whose prior-epoch twin is
    // still resident means a fingerprint-less cache would have returned
    // that stale entry.  Drop it and count the avoided stale hit.
    if (primed_.load(std::memory_order_acquire) &&
        graph_fp == current_fp_.load(std::memory_order_relaxed)) {
      const std::uint64_t prev = prev_fp_.load(std::memory_order_relaxed);
      reap = prev != graph_fp;
      stale = Key{prev, params_hash, source, algo};
    }
  }
  if (reap) {
    // Under the twin's shard lock alone: holding two shard locks at once
    // would order them by key, and two misses can order them oppositely.
    Shard& ss = shard_of(stale);
    std::lock_guard<std::mutex> lk(ss.mu);
    if (const auto sit = ss.map.find(stale); sit != ss.map.end()) {
      ss.lru.erase(sit->second);
      ss.map.erase(sit);
      stale_hits_avoided_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return {};
}

void ResultCache::put(std::uint64_t graph_fp, core::AlgoKind algo,
                      std::uint64_t params_hash, graph::vid_t source,
                      CachedResult v) {
  if (!enabled() || !v) return;
  const Key k{graph_fp, params_hash, source, algo};
  Shard& s = shard_of(k);
  std::lock_guard<std::mutex> lk(s.mu);
  if (const auto it = s.map.find(k); it != s.map.end()) {
    it->second->second = std::move(v);
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  if (s.lru.size() >= shard_capacity_) {
    s.map.erase(s.lru.back().first);
    s.lru.pop_back();
    ++s.evictions;
  }
  s.lru.emplace_front(k, std::move(v));
  s.map[k] = s.lru.begin();
  ++s.inserts;
}

void ResultCache::prime(std::uint64_t graph_fp) {
  current_fp_.store(graph_fp, std::memory_order_relaxed);
  prev_fp_.store(graph_fp, std::memory_order_relaxed);
  primed_.store(true, std::memory_order_release);
}

std::size_t ResultCache::epoch_bump(std::uint64_t new_fp) {
  prev_fp_.store(current_fp_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  current_fp_.store(new_fp, std::memory_order_relaxed);
  primed_.store(true, std::memory_order_release);
  epoch_bumps_.fetch_add(1, std::memory_order_relaxed);
  std::size_t purged = 0;
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lk(sp->mu);
    for (auto it = sp->lru.begin(); it != sp->lru.end();) {
      if (it->first.fp != new_fp) {
        sp->map.erase(it->first);
        it = sp->lru.erase(it);
        ++purged;
      } else {
        ++it;
      }
    }
  }
  purged_stale_.fetch_add(purged, std::memory_order_relaxed);
  return purged;
}

ResultCache::Stats ResultCache::stats() const {
  Stats out;
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lk(sp->mu);
    out.hits += sp->hits;
    out.misses += sp->misses;
    out.evictions += sp->evictions;
    out.inserts += sp->inserts;
    out.entries += sp->lru.size();
  }
  out.epoch_bumps = epoch_bumps_.load(std::memory_order_relaxed);
  out.purged_stale = purged_stale_.load(std::memory_order_relaxed);
  out.stale_hits_avoided =
      stale_hits_avoided_.load(std::memory_order_relaxed);
  return out;
}

std::size_t ResultCache::size() const {
  std::size_t n = 0;
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lk(sp->mu);
    n += sp->lru.size();
  }
  return n;
}

void ResultCache::clear() {
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lk(sp->mu);
    sp->lru.clear();
    sp->map.clear();
  }
}

}  // namespace xbfs::serve
