//===- doppio/backends/kv_backend.cpp -------------------------------------==//

#include "doppio/backends/kv_backend.h"

#include "doppio/path.h"

#include <memory>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::rt::fs;

/// Runs \p Step over \p Items sequentially (each step is asynchronous);
/// stops at the first error.
static void forEachAsync(
    std::shared_ptr<std::vector<std::string>> Items, size_t I,
    std::function<void(const std::string &, CompletionCb)> Step,
    CompletionCb Done) {
  if (I == Items->size()) {
    Done(std::nullopt);
    return;
  }
  // Step must be captured by copy: it is about to be invoked below, and a
  // move here would empty the very function object being called.
  auto Continue = [Items, I, Step,
                   Done = std::move(Done)](std::optional<ApiError> Err) {
    if (Err) {
      Done(Err);
      return;
    }
    forEachAsync(Items, I + 1, Step, Done);
  };
  Step((*Items)[I], std::move(Continue));
}

/// One initialize(): the records are fetched into a fresh index, the
/// children of each record in parallel, and the index is adopted only if
/// every record decodes.
struct KeyValueBackend::IndexLoad {
  FileIndex Index;
  bool Found = false;
  size_t Outstanding = 0;
  std::optional<ApiError> Err;
  CompletionCb Done;
};

void KeyValueBackend::initialize(CompletionCb Done) {
  auto Load = std::make_shared<IndexLoad>();
  Load->Done = std::move(Done);
  loadDir(Load, "/");
}

void KeyValueBackend::loadDir(std::shared_ptr<IndexLoad> Load,
                              const std::string &Dir) {
  ++Load->Outstanding;
  Store->get(dirKey(Dir), [this, Load, Dir](
                              ErrorOr<std::optional<AsyncKvStore::Bytes>> R) {
    std::vector<std::string> SubDirs;
    if (Load->Err) {
      // Already failed; the remaining fetches only drain.
    } else if (!R) {
      Load->Err = R.error();
    } else if (R->has_value()) {
      Load->Found = true;
      if (!Load->Index.decodeDir(Dir, R->value(), SubDirs))
        Load->Err = ApiError(Errno::Io, "corrupt directory record " + Dir);
    }
    for (const std::string &Sub : SubDirs)
      loadDir(Load, Sub);
    if (--Load->Outstanding != 0)
      return;
    // A store without records holds no file system yet: the index (which
    // callers may already have populated) stays as it is.
    if (!Load->Err && Load->Found)
      Index = std::move(Load->Index);
    Load->Done(Load->Err);
  });
}

void KeyValueBackend::persistDirs(std::vector<std::string> Puts,
                                  std::vector<std::string> Dels,
                                  CompletionCb Done) {
  auto PutStep = [this](const std::string &Dir, CompletionCb Next) {
    // Encoded when its turn comes, so the record is the latest state; a
    // directory removed meanwhile has no record to write.
    if (!Index.list(Dir)) {
      Next(std::nullopt);
      return;
    }
    Store->put(dirKey(Dir), Index.encodeDir(Dir), std::move(Next));
  };
  auto DelStep = [this](const std::string &Dir, CompletionCb Next) {
    Store->del(dirKey(Dir), std::move(Next));
  };
  forEachAsync(
      std::make_shared<std::vector<std::string>>(std::move(Puts)), 0, PutStep,
      [DelList = std::make_shared<std::vector<std::string>>(std::move(Dels)),
       DelStep, Done = std::move(Done)](std::optional<ApiError> Err) {
        if (Err) {
          Done(Err);
          return;
        }
        forEachAsync(DelList, 0, DelStep, Done);
      });
}

std::vector<std::string> KeyValueBackend::recordFile(const std::string &Path,
                                                     uint64_t SizeBytes) {
  // addFile re-creates missing parents (a descriptor can outlive its
  // directory): each one it adds changes, and so does the one above them.
  std::vector<std::string> Changed;
  std::string Dir = path::dirname(Path);
  for (; !Index.exists(Dir); Dir = path::dirname(Dir))
    Changed.push_back(Dir);
  Changed.push_back(Dir);
  Index.addFile(Path, SizeBytes, Env.clock().nowNs());
  return Changed;
}

void KeyValueBackend::stat(const std::string &Path, ResultCb<Stats> Done) {
  Env.chargeIo(300);
  const FileIndex::Meta *Meta = Index.lookup(Path);
  if (!Meta) {
    Done(ApiError(Errno::NoEnt, Path));
    return;
  }
  Stats S;
  S.Type = Meta->Type;
  S.SizeBytes = Meta->SizeBytes;
  S.MtimeNs = Meta->MtimeNs;
  Done(S);
}

void KeyValueBackend::open(const std::string &Path, OpenFlags Flags,
                           ResultCb<FdPtr> Done) {
  Env.chargeIo(500);
  const FileIndex::Meta *Meta = Index.lookup(Path);
  if (Meta && Meta->Type == FileType::Directory) {
    Done(ApiError(Errno::IsDir, Path));
    return;
  }
  if (Meta && Flags.Exclusive) {
    Done(ApiError(Errno::Exists, Path));
    return;
  }
  if (!Meta && !Flags.Create) {
    Done(ApiError(Errno::NoEnt, Path));
    return;
  }
  const FileIndex::Meta *Parent = Index.lookup(path::dirname(Path));
  if (!Parent || Parent->Type != FileType::Directory) {
    Done(ApiError(Errno::NoEnt, path::dirname(Path)));
    return;
  }

  // The descriptor writes the whole file back through the store and
  // re-persists its directory's record (sync-on-close lands here).
  PreloadFile::SyncFn Sync = [this](const std::string &P,
                                    const std::vector<uint8_t> &Bytes,
                                    CompletionCb SyncDone) {
    Store->put(fileKey(P), Bytes,
               [this, P, Size = Bytes.size(),
                SyncDone = std::move(SyncDone)](std::optional<ApiError> E) {
                 if (E) {
                   SyncDone(E);
                   return;
                 }
                 persistDirs(recordFile(P, Size), {}, std::move(SyncDone));
               });
  };

  auto finish = [this, Path, Flags, Done,
                 Sync](std::vector<uint8_t> Contents) {
    bool IsNew = !Index.exists(Path);
    auto Fd = std::make_shared<PreloadFile>(Env, Path, Flags,
                                            std::move(Contents), Sync);
    if (!IsNew) {
      Done(FdPtr(Fd));
      return;
    }
    // Creating: record the (empty) file immediately so stat sees it.
    persistDirs(recordFile(Path, 0), {}, [Fd, Done](std::optional<ApiError> E) {
      if (E)
        Done(*E);
      else
        Done(FdPtr(Fd));
    });
  };

  if (!Meta || Flags.Truncate) {
    finish({});
    return;
  }
  // Preload the existing contents (§5.1: files are completely loaded into
  // memory before they can be operated on).
  Store->get(fileKey(Path),
             [Path, finish, Done](
                 ErrorOr<std::optional<AsyncKvStore::Bytes>> R) {
               if (!R) {
                 Done(R.error());
                 return;
               }
               finish(R->has_value() ? std::move(R->value())
                                     : AsyncKvStore::Bytes());
             });
}

void KeyValueBackend::unlink(const std::string &Path, CompletionCb Done) {
  Env.chargeIo(300);
  const FileIndex::Meta *Meta = Index.lookup(Path);
  if (!Meta) {
    Done(ApiError(Errno::NoEnt, Path));
    return;
  }
  if (Meta->Type == FileType::Directory) {
    Done(ApiError(Errno::IsDir, Path));
    return;
  }
  Index.remove(Path);
  Store->del(fileKey(Path),
             [this, Path, Done = std::move(Done)](std::optional<ApiError> E) {
               if (E) {
                 Done(E);
                 return;
               }
               persistDirs({path::dirname(Path)}, {}, Done);
             });
}

void KeyValueBackend::rmdir(const std::string &Path, CompletionCb Done) {
  Env.chargeIo(300);
  const FileIndex::Meta *Meta = Index.lookup(Path);
  if (!Meta) {
    Done(ApiError(Errno::NoEnt, Path));
    return;
  }
  if (Meta->Type != FileType::Directory) {
    Done(ApiError(Errno::NotDir, Path));
    return;
  }
  if (!Index.isEmptyDir(Path)) {
    Done(ApiError(Errno::NotEmpty, Path));
    return;
  }
  Index.remove(Path);
  persistDirs({path::dirname(Path)}, {Path}, std::move(Done));
}

void KeyValueBackend::mkdir(const std::string &Path, CompletionCb Done) {
  Env.chargeIo(300);
  if (Index.exists(Path)) {
    Done(ApiError(Errno::Exists, Path));
    return;
  }
  const FileIndex::Meta *Parent = Index.lookup(path::dirname(Path));
  if (!Parent) {
    Done(ApiError(Errno::NoEnt, path::dirname(Path)));
    return;
  }
  if (Parent->Type != FileType::Directory) {
    Done(ApiError(Errno::NotDir, path::dirname(Path)));
    return;
  }
  Index.addDir(Path);
  // No record of its own yet: a directory without one is empty.
  persistDirs({path::dirname(Path)}, {}, std::move(Done));
}

void KeyValueBackend::readdir(const std::string &Path,
                              ResultCb<std::vector<std::string>> Done) {
  Env.chargeIo(300);
  const FileIndex::Meta *Meta = Index.lookup(Path);
  if (!Meta) {
    Done(ApiError(Errno::NoEnt, Path));
    return;
  }
  if (Meta->Type != FileType::Directory) {
    Done(ApiError(Errno::NotDir, Path));
    return;
  }
  const std::set<std::string> *Kids = Index.list(Path);
  Done(std::vector<std::string>(Kids->begin(), Kids->end()));
}

void KeyValueBackend::rename(const std::string &OldPath,
                             const std::string &NewPath, CompletionCb Done) {
  Env.chargeIo(600);
  const FileIndex::Meta *Meta = Index.lookup(OldPath);
  if (!Meta) {
    Done(ApiError(Errno::NoEnt, OldPath));
    return;
  }
  const FileIndex::Meta *DestParent = Index.lookup(path::dirname(NewPath));
  if (!DestParent || DestParent->Type != FileType::Directory) {
    Done(ApiError(Errno::NoEnt, path::dirname(NewPath)));
    return;
  }
  const FileIndex::Meta *Dest = Index.lookup(NewPath);
  if (Dest && Dest->Type == FileType::Directory) {
    Done(ApiError(Errno::IsDir, NewPath));
    return;
  }
  bool IsDir = Meta->Type == FileType::Directory;
  if (Dest && IsDir) {
    Done(ApiError(Errno::NotDir, NewPath));
    return;
  }
  if (OldPath == NewPath) {
    Done(std::nullopt);
    return;
  }

  auto isUnder = [OldPath](const std::string &P) {
    return P.compare(0, OldPath.size(), OldPath) == 0 &&
           (P.size() == OldPath.size() || P[OldPath.size()] == '/');
  };
  auto moved = [OldPath, NewPath](const std::string &P) {
    return NewPath + P.substr(OldPath.size());
  };

  // Collect the file payloads to move (one for a plain file, the subtree
  // for a directory) and, for a directory, the subtree's directories
  // (sorted, so parents come first).
  auto Files = std::make_shared<std::vector<std::string>>();
  std::vector<std::string> Dirs;
  if (!IsDir) {
    Files->push_back(OldPath);
  } else {
    if (isUnder(NewPath)) {
      Done(ApiError(Errno::Invalid, "cannot move a directory into itself"));
      return;
    }
    for (const std::string &F : Index.allFiles())
      if (isUnder(F))
        Files->push_back(F);
    for (const std::string &D : Index.allDirs())
      if (isUnder(D))
        Dirs.push_back(D);
  }

  // Move each payload: get old key -> put new key -> delete old key.
  auto MoveOne = [this, moved](const std::string &F, CompletionCb Next) {
    Store->get(
        fileKey(F),
        [this, F, Moved = moved(F),
         Next = std::move(Next)](ErrorOr<std::optional<AsyncKvStore::Bytes>> R) {
          if (!R) {
            Next(R.error());
            return;
          }
          AsyncKvStore::Bytes Data =
              R->has_value() ? std::move(R->value()) : AsyncKvStore::Bytes();
          Store->put(fileKey(Moved), Data,
                     [this, F, Next](std::optional<ApiError> E) {
                       if (E) {
                         Next(E);
                         return;
                       }
                       Store->del(fileKey(F), Next);
                     });
        });
  };

  forEachAsync(
      Files, 0, MoveOne,
      [this, Files, Dirs = std::move(Dirs), OldPath, NewPath, moved,
       Done = std::move(Done)](std::optional<ApiError> Err) {
        if (Err) {
          Done(Err);
          return;
        }
        // Rewrite the index.
        for (const std::string &D : Dirs)
          Index.addDir(moved(D));
        for (const std::string &F : *Files) {
          const FileIndex::Meta *M = Index.lookup(F);
          Index.addFile(moved(F), M->SizeBytes, M->MtimeNs);
        }
        for (auto It = Files->rbegin(); It != Files->rend(); ++It)
          Index.remove(*It);
        for (auto It = Dirs.rbegin(); It != Dirs.rend(); ++It)
          Index.remove(*It);
        // Then the records: the destination subtree, the destination
        // parent, the source parent; the source subtree's go last, so a
        // torn rename leaves the old or the new tree reachable, never a
        // blend.
        std::vector<std::string> Puts;
        for (const std::string &D : Dirs)
          Puts.push_back(moved(D));
        Puts.push_back(path::dirname(NewPath));
        if (path::dirname(OldPath) != path::dirname(NewPath))
          Puts.push_back(path::dirname(OldPath));
        persistDirs(std::move(Puts), Dirs, Done);
      });
}
