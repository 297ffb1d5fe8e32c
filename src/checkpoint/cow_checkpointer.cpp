#include "checkpoint/cow_checkpointer.h"

#include "common/hash.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "fault/fault_injector.h"
#include "store/page_store.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace crimes {

namespace {

// Fused copy+digest of one page, remapped exactly like store::page_digest
// so the captured digests drop into the store's manifests unchanged.
std::uint64_t copy_page_fused(Page& dst, const Page& src) {
  const std::uint64_t h =
      copy_and_page_hash(dst.data.data(), src.data.data(), kPageSize);
  return h == store::kZeroDigest ? 0x9E3779B97F4A7C15ULL : h;
}

}  // namespace

CowCheckpointer::CowCheckpointer(Hypervisor& hypervisor, Vm& primary,
                                 Vm& backup, const CostModel& costs,
                                 const CheckpointConfig& config,
                                 ThreadPool* pool)
    : hypervisor_(&hypervisor),
      primary_(&primary),
      backup_(&backup),
      costs_(&costs),
      config_(&config),
      pool_(pool),
      slot_of_(primary.page_count(), 0) {}

Nanos CowCheckpointer::protect(std::vector<Pfn> dirty, const VcpuState& vcpu,
                               bool capture_undo, bool want_digests) {
  if (active_) {
    throw std::logic_error("CowCheckpointer::protect: drain already pending");
  }
  active_ = true;
  want_digests_ = want_digests;
  dirty_ = std::move(dirty);
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    slot_of_[dirty_[i].value()] = static_cast<std::uint32_t>(i);
  }
  digests_.assign(dirty_.size(), 0);
  first_touches_ = 0;
  first_touch_cost_ = Nanos{0};
  vcpu_ = vcpu;

  undo_.clear();
  if (capture_undo) {
    // The backup's current bytes -- the last clean checkpoint -- of every
    // page the drain will touch. peek() never materializes frames; pages
    // without a backup frame snapshot as the shared zero page. Only
    // captured when a failure path exists: without fault injection or
    // verification the drain cannot fail, and a 70k-page epoch's undo log
    // would cost hundreds of megabytes for nothing.
    ForeignMapping dst = hypervisor_->map_foreign(backup_->id());
    undo_.reserve(dirty_.size());
    for (const Pfn pfn : dirty_) undo_.push_back(dst.peek(pfn));
  }

  primary_->monitor().cow_protect(
      dirty_, [this](Pfn pfn) { on_first_touch(pfn); });
  return costs_->cow_protect_cost(dirty_.size());
}

std::size_t CowCheckpointer::pending_pages() const {
  return active_ ? dirty_.size() - first_touches_ : 0;
}

void CowCheckpointer::on_first_touch(Pfn pfn) {
  // Synchronous dom0 handler: the guest's write is held until the page's
  // pre-write bytes -- the checkpointed content, since this is the first
  // touch -- are safe in the backup. The protection was already dropped
  // by the monitor, so the copy below cannot re-trap, and the trap cannot
  // fire twice. A PFN outside this drain's dirty set (protected by some
  // other caller of the monitor) is not ours to copy.
  const std::uint32_t slot = slot_of_[pfn.value()];
  if (slot >= dirty_.size() || dirty_[slot] != pfn) return;
  Page& to = backup_->page(pfn);
  const Page& from = std::as_const(*primary_).page(pfn);
  if (want_digests_) {
    digests_[slot] = copy_page_fused(to, from);
  } else {
    std::memcpy(to.data.data(), from.data.data(), kPageSize);
  }
  ++first_touches_;
  first_touch_cost_ +=
      costs_->cow_first_touch_per_page +
      (want_digests_ ? costs_->cow_fused_hash_per_page : Nanos{0});
}

CowCommit CowCheckpointer::complete(fault::FaultInjector* faults) {
  if (!active_) {
    throw std::logic_error("CowCheckpointer::complete: no drain pending");
  }
  CowCommit commit;
  commit.first_touches = first_touches_;
  commit.first_touch_cost = first_touch_cost_;

  // Slots the guest never touched: their pages are still protected.
  const MemoryEventMonitor& monitor = primary_->monitor();
  std::vector<std::size_t> remaining;
  remaining.reserve(dirty_.size() - first_touches_);
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    if (monitor.cow_protected(dirty_[i])) remaining.push_back(i);
  }
  commit.drained_pages = remaining.size();

  // The drain pays what the pause used to: mapping the dirty frames, then
  // the copy itself -- plus the first-touch traps already accumulated.
  Nanos cost =
      config_->opt_premap
          ? costs_->premap_per_epoch
          : costs_->map_per_page *
                static_cast<std::int64_t>(dirty_.size() * 2);
  cost += first_touch_cost_;

  ForeignMapping src = hypervisor_->map_foreign(primary_->id());
  ForeignMapping dst = hypervisor_->map_foreign(backup_->id());
  const Nanos per_page =
      costs_->copy_memcpy_per_page +
      (want_digests_ ? costs_->cow_fused_hash_per_page : Nanos{0});

  // Serial gather (mutable backup access materializes frames from the
  // shared machine pool, which must not race), parallel copy: untouched
  // PFNs map to disjoint frames and disjoint digest slots.
  const auto copy_slots = [&](std::span<const std::size_t> slots) {
    std::vector<std::pair<Page*, const Page*>> frames;
    frames.reserve(slots.size());
    for (const std::size_t slot : slots) {
      frames.emplace_back(&dst.page(dirty_[slot]), &src.peek(dirty_[slot]));
    }
    std::size_t shards = 1;
    if (pool_ != nullptr && config_->copy_threads > 1) {
      shards = std::clamp<std::size_t>(
          slots.size() / MemcpyTransport::kMinPagesPerShard, 1,
          config_->copy_threads);
    }
    if (shards <= 1) {
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (want_digests_) {
          digests_[slots[i]] = copy_page_fused(*frames[i].first,
                                               *frames[i].second);
        } else {
          std::memcpy(frames[i].first->data.data(),
                      frames[i].second->data.data(), kPageSize);
        }
      }
      return per_page * static_cast<std::int64_t>(slots.size());
    }
    pool_->parallel_for_shards(
        slots.size(), shards,
        [this, &slots, &frames](std::size_t, std::size_t begin,
                                std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            if (want_digests_) {
              digests_[slots[i]] = copy_page_fused(*frames[i].first,
                                                   *frames[i].second);
            } else {
              std::memcpy(frames[i].first->data.data(),
                          frames[i].second->data.data(), kPageSize);
            }
          }
        });
    return costs_->parallel_shard_cost(per_page, slots.size(), shards);
  };

  bool committed = false;
  for (std::size_t attempt = 0;; ++attempt) {
    bool ok = true;
    if (faults != nullptr && faults->transport_copy_fails()) {
      // The drain stream aborts at half, like an interrupted Remus epoch.
      // Only background-drained pages are affected -- their primary-side
      // sources are still protected, hence intact for the retry.
      const std::size_t done = remaining.size() / 2;
      const Nanos wasted =
          copy_slots(std::span<const std::size_t>(remaining).first(done));
      cost += wasted;
      commit.recovery_cost += wasted;
      ok = false;
    } else {
      cost += copy_slots(remaining);
      if (faults != nullptr && faults->tears_backup_write() &&
          !remaining.empty()) {
        // A torn write can only strike a drained page: first-touched pages
        // went through the synchronous hypervisor path, and their primary
        // source is gone -- they must never need a recopy.
        const Pfn victim =
            dirty_[remaining[faults->torn_victim(remaining.size())]];
        Page& page = dst.page(victim);
        const std::size_t offset = (victim.value() * 64) % (kPageSize - 64);
        for (std::size_t i = 0; i < 64; ++i) {
          page.data[offset + i] ^= std::byte{0x5A};
        }
      }
      if (config_->verify_backup) {
        // One backup-side sweep; the primary side is free -- the fused
        // digests captured at copy/first-touch time are the reference.
        cost += costs_->checksum_per_page * dirty_.size();
        for (std::size_t i = 0; i < dirty_.size() && ok; ++i) {
          ok = store::page_digest(dst.peek(dirty_[i])) == digests_[i];
        }
      }
    }
    if (ok) {
      committed = true;
      break;
    }
    if (attempt >= config_->max_copy_retries) break;
    const Nanos backoff = costs_->retry_backoff_base * (1LL << attempt);
    cost += backoff;
    commit.recovery_cost += backoff;
    ++commit.copy_retries;
  }

  if (!committed) {
    // Retries exhausted: put the last clean checkpoint back -- every page
    // this drain touched, first-touch copies included -- and hand the
    // dirty set back to the primary's bitmap so the next successful
    // checkpoint carries this epoch's pages too.
    if (!undo_.empty()) {
      for (std::size_t i = 0; i < undo_.size(); ++i) {
        std::memcpy(dst.page(dirty_[i]).data.data(), undo_[i].data.data(),
                    kPageSize);
      }
    }
    const Nanos repair = costs_->copy_memcpy_per_page * dirty_.size();
    cost += repair;
    commit.recovery_cost += repair;
    for (const Pfn pfn : dirty_) primary_->dirty_bitmap().mark(pfn);
    commit.committed = false;
    CRIMES_LOG(Warn, "cow")
        << "drain FAILED after " << commit.copy_retries
        << " retries; backup restored, " << dirty_.size()
        << " dirty pages re-marked";
  }

  primary_->monitor().cow_unprotect_all();
  undo_.clear();
  active_ = false;
  commit.drain_cost = cost;
  return commit;
}

void CowCheckpointer::abandon() {
  if (!active_) return;
  const std::size_t never_drained = pending_pages();
  if (!undo_.empty()) {
    ForeignMapping dst = hypervisor_->map_foreign(backup_->id());
    for (std::size_t i = 0; i < undo_.size(); ++i) {
      std::memcpy(dst.page(dirty_[i]).data.data(), undo_[i].data.data(),
                  kPageSize);
    }
  }
  // No cow_unprotect_all() here: abandon() runs only when the primary
  // domain has been destroyed, and its monitor (and protections) died
  // with it -- the Vm behind primary_ is already freed.
  undo_.clear();
  active_ = false;
  CRIMES_LOG(Warn, "cow") << "drain abandoned (" << never_drained
                          << " pages never drained); backup restored to the "
                             "last committed checkpoint";
}

}  // namespace crimes
