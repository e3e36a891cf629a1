#include "store/persistence.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "storage/checksum.h"
#include "store/tree_page.h"

namespace navpath {
namespace {

constexpr char kMagic[4] = {'N', 'V', 'P', 'H'};
// Version 2: every page image is followed by its 8-byte integrity trailer.
// Version 3: CRC-protected path-summary block between catalog and pages.
// Version 4: versioned-root (MVCC) block between summary and pages.
constexpr std::uint32_t kVersion = 4;
constexpr std::uint32_t kMinVersion = 2;

void WriteU8(std::ostream& out, std::uint8_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteU32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteU64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool ReadU8(std::istream& in, std::uint8_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}
bool ReadU32(std::istream& in, std::uint32_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}
bool ReadU64(std::istream& in, std::uint64_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}

/// True when every extent of `summary` lies within the file's
/// `page_count` pages; a synopsis that points past them is damaged.
bool ExtentsWithin(const PathSummary& summary, std::uint32_t page_count) {
  for (std::uint32_t i = 0; i < summary.size(); ++i) {
    const std::vector<SummaryExtent>& extents = summary.node(i).extents;
    if (!extents.empty() && extents.back().last >= page_count) return false;
  }
  return true;
}

/// fsync(2)s the file or directory at `path`.
bool Sync(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  return ::close(fd) == 0 && synced;
}

}  // namespace

Status SaveDatabase(Database* db, const ImportedDocument& doc,
                    const std::string& path,
                    const VersionedRootState* txn_state) {
  NAVPATH_CHECK(db != nullptr);
  // Everything buffered must reach the page images first.
  NAVPATH_RETURN_NOT_OK(db->buffer()->FlushAll());

  // Write a temp file beside the target and rename it over the target only
  // once it is complete, so a save that fails part-way leaves the last good
  // file in place.
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for writing: " + tmp);

  out.write(kMagic, sizeof(kMagic));
  WriteU32(out, kVersion);
  WriteU32(out, static_cast<std::uint32_t>(db->options().page_size));
  const PageId page_count = db->disk()->num_pages();
  WriteU32(out, page_count);

  const TagRegistry* tags = db->tags();
  WriteU32(out, static_cast<std::uint32_t>(tags->size()));
  for (TagId t = 0; t < tags->size(); ++t) {
    const std::string& name = db->tags()->Name(t);
    WriteU32(out, static_cast<std::uint32_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
  }

  WriteU32(out, doc.root.page);
  WriteU32(out, doc.root.slot);
  WriteU64(out, doc.root_order);
  WriteU32(out, doc.first_page);
  WriteU32(out, doc.last_page);
  WriteU64(out, doc.core_records);
  WriteU64(out, doc.attribute_records);
  WriteU64(out, doc.border_pairs);
  WriteU64(out, doc.continuation_pairs);
  WriteU64(out, doc.pages);

  // Path-summary block: derived data, so it travels with its own CRC and
  // never invalidates the rest of the file.
  const PathSummary* summary = db->summary();
  if (summary != nullptr) {
    std::string encoded;
    summary->Encode(&encoded);
    WriteU8(out, 1);
    WriteU64(out, encoded.size());
    out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
    WriteU32(out, Crc32c(reinterpret_cast<const std::byte*>(encoded.data()),
                         encoded.size()));
  } else {
    WriteU8(out, 0);
  }

  // Versioned-root block (v4): the txn layer's logical->physical mapping
  // and page bookkeeping. The shadow page images themselves are ordinary
  // disk pages and travel in the page section below.
  if (txn_state != nullptr) {
    WriteU8(out, 1);
    WriteU64(out, txn_state->seq);
    WriteU32(out, static_cast<std::uint32_t>(txn_state->mappings.size()));
    for (const auto& [logical, physical] : txn_state->mappings) {
      WriteU32(out, logical);
      WriteU32(out, physical);
    }
    WriteU32(out, static_cast<std::uint32_t>(txn_state->shadow_pages.size()));
    for (const PageId p : txn_state->shadow_pages) WriteU32(out, p);
    WriteU32(out, static_cast<std::uint32_t>(txn_state->free_pages.size()));
    for (const PageId p : txn_state->free_pages) WriteU32(out, p);
  } else {
    WriteU8(out, 0);
  }

  for (PageId p = 0; p < page_count; ++p) {
    out.write(reinterpret_cast<const char*>(db->disk()->RawPage(p)),
              static_cast<std::streamsize>(db->options().page_size));
    // The page's trailer, as maintained by the buffer manager / disk.
    WriteU32(out, db->disk()->PageCrc(p));
    WriteU32(out, 0);  // reserved
  }
  out.close();
  // The data must be on disk before the rename publishes it, and the
  // rename itself is durable only once the directory is synced: without
  // both, a power cut can leave `path` naming an empty or partial file.
  if (!out || !Sync(tmp)) {
    std::remove(tmp.c_str());
    return Status::IOError("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " over " + path);
  }
  const std::string dir = std::filesystem::path(path).parent_path().string();
  if (!Sync(dir.empty() ? "." : dir)) {
    return Status::IOError("cannot sync the directory of " + path);
  }
  return Status::OK();
}

Result<LoadedDatabase> LoadDatabase(const std::string& path,
                                    DatabaseOptions options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  // Every size and count read below is checked against the bytes left in
  // the file before it sizes an allocation, so a damaged or hostile header
  // yields Corruption instead of an abort or a huge allocation.
  in.seekg(0, std::ios::end);
  const std::streamoff file_size = in.tellg();
  in.seekg(0, std::ios::beg);
  const auto remaining = [&in, file_size]() -> std::uint64_t {
    const std::streamoff at = in.tellg();
    return at < 0 || at > file_size
               ? 0
               : static_cast<std::uint64_t>(file_size - at);
  };

  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("not a navpath database: " + path);
  }
  std::uint32_t version = 0, page_size = 0, page_count = 0, tag_count = 0;
  if (!ReadU32(in, &version) || version < kMinVersion ||
      version > kVersion) {
    return Status::Corruption("unsupported database version");
  }
  if (!ReadU32(in, &page_size) || !ReadU32(in, &page_count) ||
      !ReadU32(in, &tag_count)) {
    return Status::Corruption("truncated header");
  }
  if (page_size < TreePage::kMinPageSize ||
      page_size > TreePage::kMaxPageSize) {
    return Status::Corruption("bad page size " + std::to_string(page_size));
  }
  // Each stored page is its image followed by its integrity trailer.
  if (page_count > remaining() / (page_size + kPageTrailerBytes)) {
    return Status::Corruption("page count exceeds file size");
  }
  options.page_size = page_size;

  LoadedDatabase loaded;
  loaded.db = std::make_unique<Database>(options);
  for (std::uint32_t t = 0; t < tag_count; ++t) {
    std::uint32_t len = 0;
    if (!ReadU32(in, &len) || len > 1 << 20 || len > remaining()) {
      return Status::Corruption("bad tag entry");
    }
    std::string name(len, '\0');
    in.read(name.data(), len);
    if (!in) return Status::Corruption("truncated tag table");
    const TagId assigned = loaded.db->tags()->Intern(name);
    if (assigned != t) {
      return Status::Corruption("tag table out of order");
    }
  }

  ImportedDocument& doc = loaded.doc;
  std::uint32_t root_page = 0, root_slot = 0;
  if (!ReadU32(in, &root_page) || !ReadU32(in, &root_slot) ||
      !ReadU64(in, &doc.root_order)) {
    return Status::Corruption("truncated catalog");
  }
  doc.root = NodeID{root_page, static_cast<SlotId>(root_slot)};
  if (!ReadU32(in, &doc.first_page) || !ReadU32(in, &doc.last_page) ||
      !ReadU64(in, &doc.core_records) ||
      !ReadU64(in, &doc.attribute_records) ||
      !ReadU64(in, &doc.border_pairs) ||
      !ReadU64(in, &doc.continuation_pairs) || !ReadU64(in, &doc.pages)) {
    return Status::Corruption("truncated catalog");
  }
  // The catalog carries no checksum, so what it names must lie inside the
  // file. A file without pages holds no document and is not checked.
  if (page_count > 0) {
    if (root_page >= page_count) {
      return Status::Corruption("catalog root page " +
                                std::to_string(root_page) +
                                " past the last page");
    }
    if (doc.first_page > doc.last_page || doc.last_page >= page_count) {
      return Status::Corruption("catalog page range past the last page");
    }
  }

  if (version >= 3) {
    // The summary is derived data: any damage here degrades to "no
    // synopsis" (recorded in summary_status) instead of failing the load.
    std::uint8_t has_summary = 0;
    if (!ReadU8(in, &has_summary) || has_summary > 1) {
      return Status::Corruption("truncated summary block");
    }
    if (has_summary == 1) {
      std::uint64_t len = 0;
      if (!ReadU64(in, &len) || len > remaining()) {
        return Status::Corruption("bad summary block length");
      }
      std::string encoded(len, '\0');
      in.read(encoded.data(), static_cast<std::streamsize>(len));
      std::uint32_t stored_crc = 0;
      if (!in || !ReadU32(in, &stored_crc)) {
        return Status::Corruption("truncated summary block");
      }
      if (Crc32c(reinterpret_cast<const std::byte*>(encoded.data()),
                 encoded.size()) != stored_crc) {
        loaded.summary_status =
            Status::Corruption("path summary failed checksum verification");
      } else {
        auto summary = PathSummary::Decode(encoded.data(), encoded.size());
        if (summary.ok() && !ExtentsWithin(**summary, page_count)) {
          summary =
              Status::Corruption("path summary extent past the last page");
        }
        if (summary.ok()) {
          loaded.db->SetSummary(std::shared_ptr<const PathSummary>(
              std::move(*summary)));
        } else {
          loaded.summary_status = summary.status();
        }
      }
    }
  }

  if (version >= 4) {
    std::uint8_t has_txn = 0;
    if (!ReadU8(in, &has_txn) || has_txn > 1) {
      return Status::Corruption("truncated versioned-root block");
    }
    if (has_txn == 1) {
      VersionedRootState& txn = loaded.txn_state;
      std::uint32_t mapping_count = 0;
      if (!ReadU64(in, &txn.seq) || !ReadU32(in, &mapping_count) ||
          mapping_count > page_count ||
          mapping_count > remaining() / (2 * sizeof(std::uint32_t))) {
        return Status::Corruption("bad versioned-root mapping table");
      }
      txn.mappings.reserve(mapping_count);
      for (std::uint32_t i = 0; i < mapping_count; ++i) {
        std::uint32_t logical = 0, physical = 0;
        if (!ReadU32(in, &logical) || !ReadU32(in, &physical) ||
            logical >= page_count || physical >= page_count) {
          return Status::Corruption("versioned-root mapping out of range");
        }
        txn.mappings.emplace_back(logical, physical);
      }
      auto read_page_list = [&](std::vector<PageId>* list,
                                const char* what) -> Status {
        std::uint32_t n = 0;
        if (!ReadU32(in, &n) || n > page_count ||
            n > remaining() / sizeof(std::uint32_t)) {
          return Status::Corruption(std::string("bad ") + what + " list");
        }
        list->reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          std::uint32_t p = 0;
          if (!ReadU32(in, &p) || p >= page_count) {
            return Status::Corruption(std::string(what) +
                                      " page out of range");
          }
          list->push_back(p);
        }
        return Status::OK();
      };
      NAVPATH_RETURN_NOT_OK(read_page_list(&txn.shadow_pages, "shadow"));
      NAVPATH_RETURN_NOT_OK(read_page_list(&txn.free_pages, "free"));
      loaded.has_txn_state = true;
    }
  }

  std::vector<std::byte> buf(page_size);
  for (std::uint32_t p = 0; p < page_count; ++p) {
    in.read(reinterpret_cast<char*>(buf.data()), page_size);
    if (!in) return Status::Corruption("truncated page data");
    std::uint32_t stored_crc = 0, reserved = 0;
    if (!ReadU32(in, &stored_crc) || !ReadU32(in, &reserved)) {
      return Status::Corruption("truncated page trailer");
    }
    if (Crc32c(buf.data(), page_size) != stored_crc) {
      return Status::Corruption("page " + std::to_string(p) +
                                " failed checksum verification");
    }
    loaded.db->disk()->LoadRawPage(buf.data());
  }

  if (page_count == 0) {
    // No pages, no document: whatever the unchecked catalog says.
    loaded.doc = ImportedDocument{};
    return loaded;
  }
  // The root must be a live core record on the page that holds the current
  // version of the root cluster (the versioned root may have moved it).
  PageId root_physical = root_page;
  for (const auto& [logical, physical] : loaded.txn_state.mappings) {
    if (logical == root_page) root_physical = physical;
  }
  std::memcpy(buf.data(), loaded.db->disk()->RawPage(root_physical),
              page_size);
  const TreePage root_view(buf.data(), page_size);
  if (!root_view.Validate().ok() || root_slot >= root_view.slot_count() ||
      !root_view.IsLive(static_cast<SlotId>(root_slot)) ||
      root_view.KindOf(static_cast<SlotId>(root_slot)) != RecordKind::kCore) {
    return Status::Corruption("catalog root slot " +
                              std::to_string(root_slot) +
                              " is not a live core record on page " +
                              std::to_string(root_physical));
  }
  return loaded;
}

}  // namespace navpath
