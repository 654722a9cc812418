//===- doppio/backends/kv_backend.h - FS over a key/value store --*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A complete file system backend built over any AsyncKvStore, covering the
/// paper's localStorage-, IndexedDB-, and Dropbox-backed file systems with
/// one implementation of the nine backend methods (§5.1). File contents
/// live under "f:<path>" keys. The FileIndex utility caches the directory
/// tree in memory and persists it one directory at a time: "d:<dir>"
/// holds the record of that directory's children (FileIndex::encodeDir),
/// and a directory with no record is empty. A mutation re-persists only
/// the records of the directories it touched, after the payload:
///
///  - close, create, unlink, mkdir: the parent's record;
///  - rmdir: the parent's record, then the directory's own record is
///    deleted;
///  - rename: payloads move first; then the records of the destination
///    subtree, the destination parent and the source parent are put, and
///    the source subtree's records are deleted.
///
/// A page reload reconstructs the file system by walking the records from
/// "d:/"; a torn or corrupt record fails initialize().
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_BACKENDS_KV_BACKEND_H
#define DOPPIO_DOPPIO_BACKENDS_KV_BACKEND_H

#include "doppio/backends/kv_store.h"
#include "doppio/fs_backend.h"

#include <memory>
#include <string>
#include <vector>

namespace doppio {
namespace rt {
namespace fs {

/// File system over an asynchronous key/value store.
class KeyValueBackend : public FileSystemBackend {
public:
  KeyValueBackend(browser::BrowserEnv &Env,
                  std::unique_ptr<AsyncKvStore> Store)
      : Env(Env), Store(std::move(Store)) {}

  /// Loads the persisted directory records (none: an empty file system).
  /// Must complete before use; fails on a torn or corrupt record.
  void initialize(CompletionCb Done);

  std::string backendName() const override {
    return "kv:" + Store->storeName();
  }
  bool isReadOnly() const override { return false; }

  void rename(const std::string &OldPath, const std::string &NewPath,
              CompletionCb Done) override;
  void stat(const std::string &Path, ResultCb<Stats> Done) override;
  void open(const std::string &Path, OpenFlags Flags,
            ResultCb<FdPtr> Done) override;
  void unlink(const std::string &Path, CompletionCb Done) override;
  void rmdir(const std::string &Path, CompletionCb Done) override;
  void mkdir(const std::string &Path, CompletionCb Done) override;
  void readdir(const std::string &Path,
               ResultCb<std::vector<std::string>> Done) override;

  const FileIndex &index() const { return Index; }
  AsyncKvStore &store() { return *Store; }

  /// Durability barrier: completes once every acknowledged mutation has
  /// reached the underlying mechanism. Immediate for the write-through
  /// adapters; flushes the write-back cache when one is layered below.
  void sync(CompletionCb Done) { Store->sync(std::move(Done)); }

private:
  static std::string fileKey(const std::string &Path) { return "f:" + Path; }
  static std::string dirKey(const std::string &Dir) { return "d:" + Dir; }
  /// Puts the current records of \p Puts, then deletes the records of
  /// \p Dels, one store call at a time; stops at the first error.
  void persistDirs(std::vector<std::string> Puts,
                   std::vector<std::string> Dels, CompletionCb Done);
  /// Records the file \p Path of \p SizeBytes in the index, stamped now;
  /// returns the directories whose records changed.
  std::vector<std::string> recordFile(const std::string &Path,
                                      uint64_t SizeBytes);

  struct IndexLoad;
  void loadDir(std::shared_ptr<IndexLoad> Load, const std::string &Dir);

  browser::BrowserEnv &Env;
  std::unique_ptr<AsyncKvStore> Store;
  FileIndex Index;
};

} // namespace fs
} // namespace rt
} // namespace doppio

#endif // DOPPIO_DOPPIO_BACKENDS_KV_BACKEND_H
