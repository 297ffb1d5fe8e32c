// Sparse memory dumps: a dump copies only the frames the VM had backed, and
// every plugin must read it exactly as it reads a dump of the same guest with
// every frame backed. Also checks the memchr-driven malfind against a
// byte-serial reference sweep.
#include "common/rng.h"
#include "forensics/memory_dump.h"
#include "forensics/plugins.h"
#include "test_helpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

namespace crimes {
namespace {

using testing::TestGuest;
namespace fx = forensics;

MemoryDump dump_of(TestGuest& guest, const std::string& label) {
  return MemoryDump::capture(*guest.vm, guest.kernel->symbols(),
                             guest.kernel->flavor(), label, Nanos{0});
}

// --- Plain-text renderings that keep every field, for equality checks -----

std::string text(const std::vector<fx::PsEntry>& rows) {
  std::ostringstream out;
  for (const auto& p : rows) {
    out << p.pid.value() << ' ' << p.uid << ' ' << p.name << ' ' << p.state
        << ' ' << p.start_time_ns << ' ' << p.task_va.value() << '\n';
  }
  return out.str();
}

std::string text(const std::vector<fx::PsxRow>& rows) {
  std::ostringstream out;
  for (const auto& r : rows) {
    out << text({r.proc}) << r.in_pslist << r.in_psscan << r.in_pid_hash
        << '\n';
  }
  return out.str();
}

std::string text(const std::vector<fx::ModEntry>& rows) {
  std::ostringstream out;
  for (const auto& m : rows) {
    out << m.name << ' ' << m.size << ' ' << m.module_va.value() << ' '
        << m.in_list << '\n';
  }
  return out.str();
}

std::string text(const std::vector<fx::NetscanRow>& rows) {
  std::ostringstream out;
  for (const auto& r : rows) {
    out << r.pid.value() << ' ' << r.proto << ' ' << r.state << ' ' << r.local
        << ' ' << r.remote << ' ' << r.entry_va.value() << '\n';
  }
  return out.str();
}

std::string text(const std::vector<fx::HandleRow>& rows) {
  std::ostringstream out;
  for (const auto& r : rows) {
    out << r.pid.value() << ' ' << r.path << ' ' << r.entry_va.value() << '\n';
  }
  return out.str();
}

std::string text(const std::vector<fx::MalfindHit>& hits) {
  std::ostringstream out;
  for (const auto& h : hits) {
    out << h.va.value() << ' ' << h.length << ' ' << h.reason << '\n';
  }
  return out.str();
}

std::string text(const std::vector<fx::TimelineEvent>& events) {
  std::ostringstream out;
  for (const auto& e : events) out << e.at_ns << ' ' << e.description << '\n';
  return out.str();
}

void unlink_module(GuestKernel& kernel, const std::string& name) {
  const auto mods = kernel.module_list_ground_truth();
  const auto it = std::find_if(mods.begin(), mods.end(),
                               [&](const ModuleInfo& m) {
                                 return m.name == name;
                               });
  ASSERT_NE(it, mods.end());
  const Vaddr node = it->module_va;
  const Vaddr next{
      kernel.read_value<std::uint64_t>(node + ModuleLayout::kNextOff)};
  const Vaddr prev{
      kernel.read_value<std::uint64_t>(node + ModuleLayout::kPrevOff)};
  kernel.write_value<std::uint64_t>(prev + ModuleLayout::kNextOff,
                                    next.value());
  kernel.write_value<std::uint64_t>(next + ModuleLayout::kPrevOff,
                                    prev.value());
}

TEST(SparseDump, DenseTwinReadsTheSame) {
  TestGuest guest;
  GuestKernel& kernel = *guest.kernel;
  const Pid hidden = kernel.spawn_process("ghost", 0);
  kernel.attack_hide_process(hidden, /*scrub_pid_hash=*/true);
  kernel.load_module("rootkit_lkm", 8192);
  unlink_module(kernel, "rootkit_lkm");
  const Pid client = kernel.spawn_process("client", 1000);
  (void)kernel.open_socket(SocketInfo{
      .pid = client, .proto = 6, .state = 1,
      .local_ip = make_ipv4(10, 0, 0, 5), .local_port = 1234,
      .remote_ip = make_ipv4(6, 6, 6, 6), .remote_port = 443,
      .entry_va = Vaddr{0}});
  (void)kernel.open_file(client, "/etc/shadow");
  const Vaddr shellcode = kernel.heap().malloc(256);
  kernel.attack_plant_shellcode(shellcode);
  // Stray table magics on the last guest page. The table walks run on
  // through guest memory today, so the sparse walk must step over every
  // unbacked page between the tables and these entries and land on them
  // exactly as the dense walk does.
  const SymbolNames names = SymbolNames::for_flavor(kernel.flavor());
  const std::uint64_t last_page =
      kVaBase + (guest.vm->page_count() - 1) * kPageSize;
  const auto first_entry_on_last_page = [&](Vaddr table, std::size_t size) {
    return table + (last_page - table.value() + size - 1) / size * size;
  };
  kernel.write_value<std::uint32_t>(
      first_entry_on_last_page(
          kernel.symbols().lookup(names.socket_table), SocketLayout::kSize),
      SocketLayout::kMagic);
  kernel.write_value<std::uint32_t>(
      first_entry_on_last_page(kernel.symbols().lookup(names.file_table),
                               FileHandleLayout::kSize),
      FileHandleLayout::kMagic);

  const MemoryDump sparse = dump_of(guest, "sparse");
  ASSERT_LT(sparse.backed().size(), sparse.page_count());
  EXPECT_EQ(sparse.page_count(), guest.vm->page_count());
  EXPECT_EQ(sparse.byte_size(), guest.vm->page_count() * kPageSize);

  // Back every frame (the mutable accessor materialises it as zeroes).
  for (std::size_t i = 0; i < guest.vm->page_count(); ++i) {
    (void)guest.vm->page(Pfn{i});
  }
  const MemoryDump dense = dump_of(guest, "dense");
  ASSERT_EQ(dense.backed().size(), dense.page_count());
  ASSERT_EQ(dense.page_count(), sparse.page_count());

  for (std::size_t i = 0; i < sparse.page_count(); ++i) {
    ASSERT_TRUE(sparse.page(Pfn{i}) == dense.page(Pfn{i})) << "PFN " << i;
  }

  // The sparse dump's outputs carry every planted artefact...
  const auto psx = fx::psxview(sparse);
  EXPECT_TRUE(std::any_of(psx.begin(), psx.end(), [&](const fx::PsxRow& r) {
    return r.proc.pid == hidden && r.suspicious();
  }));
  const auto mods = fx::modscan(sparse);
  EXPECT_TRUE(std::any_of(mods.begin(), mods.end(), [](const fx::ModEntry& m) {
    return m.name == "rootkit_lkm" && !m.in_list;
  }));
  const auto socks = fx::netscan(sparse);
  EXPECT_TRUE(std::any_of(socks.begin(), socks.end(),
                          [](const fx::NetscanRow& r) {
                            return r.remote == "6.6.6.6:443";
                          }));
  const auto files = fx::handles(sparse);
  EXPECT_TRUE(std::any_of(files.begin(), files.end(),
                          [](const fx::HandleRow& r) {
                            return r.path == "/etc/shadow";
                          }));
  ASSERT_EQ(fx::malfind(sparse).size(), 1u);
  EXPECT_EQ(fx::malfind(sparse)[0].va, shellcode);

  // ...and every plugin reads both dumps identically.
  EXPECT_EQ(text(fx::pslist(sparse)), text(fx::pslist(dense)));
  EXPECT_EQ(text(fx::psscan(sparse)), text(fx::psscan(dense)));
  EXPECT_EQ(text(psx), text(fx::psxview(dense)));
  EXPECT_EQ(text(mods), text(fx::modscan(dense)));
  EXPECT_EQ(text(socks), text(fx::netscan(dense)));
  EXPECT_EQ(text(files), text(fx::handles(dense)));
  EXPECT_EQ(text(fx::malfind(sparse)), text(fx::malfind(dense)));
  EXPECT_EQ(text(fx::timeline(sparse)), text(fx::timeline(dense)));
  EXPECT_EQ(fx::syscall_table(sparse), fx::syscall_table(dense));
  EXPECT_TRUE(fx::DumpDiff::compute(sparse, dense).empty());
  EXPECT_TRUE(fx::DumpDiff::compute(dense, sparse).empty());
}

TEST(SparseDump, UnbackedFrameStaysZeroAfterLaterWrite) {
  TestGuest guest;
  const MemoryDump before = dump_of(guest, "before");

  Pfn target{0};
  for (std::size_t i = guest.vm->page_count(); i-- > 1;) {
    if (!guest.vm->is_backed(Pfn{i})) {
      target = Pfn{i};
      break;
    }
  }
  ASSERT_NE(target.value(), 0u);
  ASSERT_FALSE(before.is_backed(target));
  guest.vm->write_phys_value<std::uint64_t>(Paddr::from(target, 128),
                                            0x1122334455667788ULL);

  const MemoryDump after = dump_of(guest, "after");
  EXPECT_TRUE(after.is_backed(target));
  EXPECT_FALSE(before.is_backed(target));
  EXPECT_TRUE(before.page(target) == zero_page());
  EXPECT_FALSE(after.page(target) == zero_page());

  const std::vector<Pfn> expected{target};
  EXPECT_EQ(fx::DumpDiff::compute(before, after).changed_pages, expected);
  EXPECT_EQ(fx::DumpDiff::compute(after, before).changed_pages, expected);
}

// --- malfind against a byte-serial reference --------------------------------

// The sweep as first written: every page, one byte at a time.
std::vector<fx::MalfindHit> malfind_reference(const MemoryDump& dump,
                                              std::size_t min_sled) {
  std::vector<fx::MalfindHit> hits;
  for (std::size_t p = 0; p < dump.page_count(); ++p) {
    const auto bytes = dump.page(Pfn{p}).bytes();
    std::size_t i = 0;
    while (i < kPageSize) {
      std::size_t sled = 0;
      while (i + sled < kPageSize && bytes[i + sled] == std::byte{0x90}) {
        ++sled;
      }
      if (sled >= min_sled) {
        const std::size_t after = i + sled;
        bool stub = false;
        if (after + 9 <= kPageSize && bytes[after] == std::byte{0x48} &&
            bytes[after + 1] == std::byte{0xC7} &&
            bytes[after + 2] == std::byte{0xC0} &&
            bytes[after + 7] == std::byte{0x0F} &&
            bytes[after + 8] == std::byte{0x05}) {
          stub = true;
        }
        hits.push_back(fx::MalfindHit{
            .va = Vaddr{kVaBase + (p << kPageShift) + i},
            .length = sled + (stub ? 9 : 0),
            .reason = "NOP sled (" + std::to_string(sled) + " bytes)" +
                      (stub ? " + syscall stub" : ""),
        });
        i = after + (stub ? 9 : 0);
        continue;
      }
      i += sled + 1;
    }
  }
  return hits;
}

constexpr unsigned char kStub[] = {0x48, 0xC7, 0xC0, 0x3B, 0x00,
                                   0x00, 0x00, 0x0F, 0x05};

// Writes `len` NOPs at `off`, then the syscall stub (cut off at the page
// end if it does not fit) when `stub` is set. Returns the offset after it.
std::size_t put_sled(Page& page, std::size_t off, std::size_t len,
                     bool stub) {
  for (std::size_t k = 0; k < len && off < kPageSize; ++k) {
    page.data[off++] = std::byte{0x90};
  }
  if (stub) {
    for (const unsigned char b : kStub) {
      if (off >= kPageSize) break;
      page.data[off++] = static_cast<std::byte>(b);
    }
  }
  return off;
}

TEST(Malfind, MatchesByteSerialReference) {
  constexpr unsigned char kAlphabet[] = {0x90, 0x90, 0x90, 0x90, 0x48,
                                         0xC7, 0xC0, 0x0F, 0x05, 0x00};
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const std::size_t min_sled : {1u, 2u, 16u, 24u}) {
      TestGuest guest;
      Rng rng(seed * 100 + min_sled);
      const std::size_t top = guest.vm->page_count();
      std::size_t next = top - 1;
      const auto fresh = [&]() -> Page& {
        Page& page = guest.vm->page(Pfn{next--});
        page.zero();
        return page;
      };

      // Sleds at the start and at the end of a page (the end sled of one
      // page runs straight into the start sled of the next PFN's page).
      {
        Page& hi = fresh();
        put_sled(hi, 0, min_sled, true);
        Page& lo = fresh();
        put_sled(lo, kPageSize - min_sled, min_sled, false);
      }
      // Exactly min_sled - 1 and min_sled bytes, with and without a stub.
      {
        Page& page = fresh();
        std::size_t off = 64;
        off = put_sled(page, off, min_sled - 1, true) + 3;
        off = put_sled(page, off, min_sled, true) + 5;
        off = put_sled(page, off, min_sled - 1, false) + 1;
        (void)put_sled(page, off, min_sled, false);
      }
      // A stub cut off at the page end, for every cut length, and one that
      // just fits.
      for (std::size_t cut = 1; cut <= sizeof(kStub); ++cut) {
        Page& page = fresh();
        put_sled(page, kPageSize - cut - min_sled, min_sled, true);
      }
      // Back-to-back sleds: stub then sled with no gap, and sleds apart by
      // a single non-NOP byte.
      {
        Page& page = fresh();
        std::size_t off = 100;
        off = put_sled(page, off, min_sled, true);
        off = put_sled(page, off, min_sled + 1, true);
        off = put_sled(page, off, min_sled, false);
        page.data[off++] = std::byte{0x48};
        off = put_sled(page, off, min_sled, false);
        page.data[off++] = std::byte{0x00};
        (void)put_sled(page, off, min_sled + 3, true);
      }
      // Random pages drawn mostly from NOP and stub bytes.
      for (int r = 0; r < 12; ++r) {
        Page& page = fresh();
        for (auto& b : page.data) {
          b = static_cast<std::byte>(
              kAlphabet[rng.next_below(sizeof(kAlphabet))]);
        }
      }

      const MemoryDump dump = dump_of(guest, "malfind");
      const auto expected = malfind_reference(dump, min_sled);
      ASSERT_FALSE(expected.empty());
      EXPECT_EQ(text(fx::malfind(dump, min_sled)), text(expected))
          << "seed " << seed << ", min_sled " << min_sled;
    }
  }
}

}  // namespace
}  // namespace crimes
