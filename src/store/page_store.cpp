#include "store/page_store.h"

#include "checkpoint/transport.h"  // crimes::rle -- the shared codec
#include "common/hash.h"

#include <algorithm>
#include <stdexcept>

namespace crimes::store {

namespace {

// Secondary hash for collision detection: same function, different seed,
// so two contents colliding on both is no longer a birthday problem but a
// 128-bit accident.
std::uint64_t check_digest(const Page& page) {
  return page_hash(page.bytes(), /*seed=*/0x9E3779B97F4A7C15ULL);
}

}  // namespace

std::uint64_t page_digest(const Page& page) {
  const std::uint64_t h = page_hash(page.bytes());
  // kZeroDigest is the manifest's "zero page" sentinel; remap the (absurdly
  // unlikely) real page hashing to it onto an arbitrary fixed value.
  return h == kZeroDigest ? 0x9E3779B97F4A7C15ULL : h;
}

std::uint64_t PageStore::intern(const Page& page, std::uint64_t digest,
                                std::uint64_t prev_digest) {
  ++stats_.interns;
  if (auto it = entries_.find(digest); it != entries_.end()) {
    if (it->second.check != check_digest(page)) {
      // A genuine 64-bit digest collision. Refusing loudly beats silently
      // deduplicating two different pages into one.
      throw std::runtime_error("PageStore: page digest collision");
    }
    ++it->second.refs;
    ++stats_.dedup_hits;
    return digest;
  }

  Entry entry;
  entry.refs = 1;
  entry.check = check_digest(page);
  entry.payload = rle::encode(page.bytes());

  // Delta candidate: XOR against the previous version of this PFN and keep
  // whichever encoding is smaller. Only raw entries may serve as bases
  // (depth-1 chains), and the base must still be live.
  if (delta_compress_ && prev_digest != kZeroDigest &&
      prev_digest != digest) {
    if (auto base = entries_.find(prev_digest);
        base != entries_.end() && base->second.base == kZeroDigest) {
      Page prev;
      bool base_intact = true;
      try {
        materialize(prev_digest, prev);
      } catch (const crypto::TamperError&) {
        // The base failed its MAC: a mid-run detection, already counted in
        // stats_.seal_failures and re-reported by the end-of-run seal
        // audit. Don't kill the pipeline for an optimization -- store the
        // new version raw and leave the tampered entry as evidence.
        base_intact = false;
      }
      if (base_intact) {
        Page delta;
        for (std::size_t i = 0; i < kPageSize; ++i) {
          delta.data[i] = page.data[i] ^ prev.data[i];
        }
        std::vector<std::byte> delta_rle = rle::encode(delta.bytes());
        if (delta_rle.size() < entry.payload.size()) {
          entry.base = prev_digest;
          entry.payload = std::move(delta_rle);
          ++base->second.refs;  // the delta pins its base
          ++stats_.delta_entries;
        }
      }
    }
  }

  // Seal last: the delta candidate above needed plaintext payloads, and
  // the tweak is the entry's own digest, so a sealed payload moved to a
  // different digest slot deciphers under the wrong keystream and its
  // MAC misses (SEVurity's block-move attack, detected not decoded).
  if (sealer_ != nullptr) {
    entry.mac = sealer_->seal(entry.payload, digest);
    ++stats_.pages_sealed;
  }

  stats_.bytes_physical += entry.payload.size() + kEntryOverhead;
  ++stats_.pages_unique;
  entries_.emplace(digest, std::move(entry));
  return digest;
}

void PageStore::release(std::uint64_t digest) {
  if (digest == kZeroDigest) return;
  const auto it = entries_.find(digest);
  if (it == entries_.end()) {
    throw std::logic_error("PageStore::release: unknown digest");
  }
  if (--it->second.refs > 0) return;
  const std::uint64_t base = it->second.base;
  stats_.bytes_physical -= it->second.payload.size() + kEntryOverhead;
  --stats_.pages_unique;
  if (base != kZeroDigest) --stats_.delta_entries;
  entries_.erase(it);
  if (base != kZeroDigest) release(base);
}

void PageStore::materialize(std::uint64_t digest, Page& out) const {
  if (digest == kZeroDigest) {
    out.zero();
    return;
  }
  const auto it = entries_.find(digest);
  if (it == entries_.end()) {
    throw std::logic_error("PageStore::materialize: unknown digest");
  }
  const Entry& entry = it->second;

  // Sealed store: verify the MAC before any decode, and decipher a copy
  // -- the stored payload stays sealed at rest. A mismatch is reported
  // as tampering (crypto::TamperError), never decrypted into garbage.
  std::vector<std::byte> unsealed;
  const std::vector<std::byte>* payload = &entry.payload;
  if (sealer_ != nullptr) {
    unsealed = entry.payload;
    if (!sealer_->unseal(unsealed, digest, entry.mac)) {
      ++stats_.seal_failures;
      throw crypto::TamperError(
          "PageStore::materialize: MAC mismatch on sealed payload");
    }
    payload = &unsealed;
  }

  if (entry.base == kZeroDigest) {
    if (!rle::decode(*payload, out.bytes())) {
      throw std::logic_error("PageStore::materialize: corrupt raw payload");
    }
    return;
  }
  materialize(entry.base, out);  // depth-1 chain: the base is raw
  Page delta;
  if (!rle::decode(*payload, delta.bytes())) {
    throw std::logic_error("PageStore::materialize: corrupt delta payload");
  }
  for (std::size_t i = 0; i < kPageSize; ++i) out.data[i] ^= delta.data[i];
}

std::uint32_t PageStore::refs(std::uint64_t digest) const {
  const auto it = entries_.find(digest);
  return it == entries_.end() ? 0 : it->second.refs;
}

std::vector<std::uint64_t> PageStore::verify_seals() const {
  std::vector<std::uint64_t> bad;
  if (sealer_ == nullptr) return bad;
  // Walk in hash-map order and sort only the failures: the evidence order
  // is the same as a sorted sweep without sorting the whole store.
  for (const auto& [digest, entry] : entries_) {
    if (sealer_->mac(entry.payload, digest) != entry.mac) {
      bad.push_back(digest);
      ++stats_.seal_failures;
    }
  }
  std::sort(bad.begin(), bad.end());
  return bad;
}

std::uint64_t PageStore::tamper(std::uint64_t victim, TamperMode mode) {
  if (entries_.empty()) return kZeroDigest;
  // Victims index the sorted digest list: unordered_map order would break
  // same-seed reproducibility.
  std::vector<std::uint64_t> digests;
  digests.reserve(entries_.size());
  for (const auto& [digest, entry] : entries_) digests.push_back(digest);
  std::sort(digests.begin(), digests.end());
  const std::uint64_t target = digests[victim % digests.size()];
  Entry& entry = entries_.at(target);
  switch (mode) {
    case TamperMode::FlipByte:
      if (!entry.payload.empty()) {
        entry.payload[entry.payload.size() / 2] ^= std::byte{0x40};
      }
      break;
    case TamperMode::SwapEntries: {
      // Move attack: two sealed records trade places wholesale (payload
      // *and* tag). Each tag still matches its own bytes -- only the
      // digest-bound tweak gives the move away.
      if (digests.size() < 2) {
        entry.mac ^= 1;  // degenerate store: no partner to swap with
        break;
      }
      Entry& other =
          entries_.at(digests[(victim + 1) % digests.size()]);
      std::swap(entry.payload, other.payload);
      std::swap(entry.mac, other.mac);
      break;
    }
    case TamperMode::TruncateMac:
      entry.mac = 0;
      break;
  }
  return target;
}

}  // namespace crimes::store
