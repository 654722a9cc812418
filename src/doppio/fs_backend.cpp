//===- doppio/fs_backend.cpp ----------------------------------------------==//

#include "doppio/fs_backend.h"

#include "browser/wire.h"
#include "doppio/cont/snapshot.h"
#include "doppio/path.h"

#include <cassert>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::rt::fs;

std::optional<OpenFlags> OpenFlags::parse(const std::string &Mode) {
  OpenFlags F;
  if (Mode == "r") {
    F.Read = true;
  } else if (Mode == "r+") {
    F.Read = F.Write = true;
  } else if (Mode == "w") {
    F.Write = F.Create = F.Truncate = true;
  } else if (Mode == "wx") {
    F.Write = F.Create = F.Truncate = F.Exclusive = true;
  } else if (Mode == "w+") {
    F.Read = F.Write = F.Create = F.Truncate = true;
  } else if (Mode == "a") {
    F.Write = F.Create = F.Append = true;
  } else if (Mode == "a+") {
    F.Read = F.Write = F.Create = F.Append = true;
  } else {
    return std::nullopt;
  }
  return F;
}

FileDescriptor::~FileDescriptor() = default;

void FileDescriptor::truncate(uint64_t, CompletionCb Done) {
  Done(ApiError(Errno::NotSup, "truncate"));
}

FileSystemBackend::~FileSystemBackend() = default;

void FileSystemBackend::chmod(const std::string &Path, uint32_t,
                              CompletionCb Done) {
  Done(ApiError(Errno::NotSup, Path));
}

void FileSystemBackend::chown(const std::string &Path, uint32_t, uint32_t,
                              CompletionCb Done) {
  Done(ApiError(Errno::NotSup, Path));
}

void FileSystemBackend::utimes(const std::string &Path, uint64_t,
                               CompletionCb Done) {
  Done(ApiError(Errno::NotSup, Path));
}

void FileSystemBackend::link(const std::string &, const std::string &Created,
                             CompletionCb Done) {
  Done(ApiError(Errno::NotSup, Created));
}

void FileSystemBackend::symlink(const std::string &,
                                const std::string &Created,
                                CompletionCb Done) {
  Done(ApiError(Errno::NotSup, Created));
}

void FileSystemBackend::readlink(const std::string &Path,
                                 ResultCb<std::string> Done) {
  Done(ApiError(Errno::NotSup, Path));
}

//===----------------------------------------------------------------------===//
// FileIndex
//===----------------------------------------------------------------------===//

FileIndex::FileIndex() {
  Entries["/"] = {FileType::Directory, 0, 0};
  Children["/"] = {};
}

bool FileIndex::addDir(const std::string &Path) {
  if (Path == "/")
    return true;
  auto It = Entries.find(Path);
  if (It != Entries.end())
    return It->second.Type == FileType::Directory;
  std::string Parent = path::dirname(Path);
  if (!addDir(Parent))
    return false;
  Entries[Path] = {FileType::Directory, 0, 0};
  Children[Path] = {};
  Children[Parent].insert(path::basename(Path));
  return true;
}

bool FileIndex::addFile(const std::string &Path, uint64_t SizeBytes,
                        uint64_t MtimeNs) {
  auto It = Entries.find(Path);
  if (It != Entries.end()) {
    if (It->second.Type != FileType::File)
      return false;
    It->second.SizeBytes = SizeBytes;
    It->second.MtimeNs = MtimeNs;
    return true;
  }
  std::string Parent = path::dirname(Path);
  if (!addDir(Parent))
    return false;
  Entries[Path] = {FileType::File, SizeBytes, MtimeNs};
  Children[Parent].insert(path::basename(Path));
  return true;
}

bool FileIndex::remove(const std::string &Path) {
  if (Path == "/")
    return false;
  auto It = Entries.find(Path);
  if (It == Entries.end())
    return false;
  if (It->second.Type == FileType::Directory && !isEmptyDir(Path))
    return false;
  Entries.erase(It);
  Children.erase(Path);
  Children[path::dirname(Path)].erase(path::basename(Path));
  return true;
}

bool FileIndex::exists(const std::string &Path) const {
  return Entries.count(Path) != 0;
}

const FileIndex::Meta *FileIndex::lookup(const std::string &Path) const {
  auto It = Entries.find(Path);
  return It == Entries.end() ? nullptr : &It->second;
}

void FileIndex::setSize(const std::string &Path, uint64_t SizeBytes,
                        uint64_t MtimeNs) {
  auto It = Entries.find(Path);
  assert(It != Entries.end() && "setSize on unknown path");
  It->second.SizeBytes = SizeBytes;
  It->second.MtimeNs = MtimeNs;
}

const std::set<std::string> *FileIndex::list(const std::string &Path) const {
  auto It = Children.find(Path);
  return It == Children.end() ? nullptr : &It->second;
}

bool FileIndex::isEmptyDir(const std::string &Path) const {
  const std::set<std::string> *Kids = list(Path);
  return Kids && Kids->empty();
}

std::vector<std::string> FileIndex::allFiles() const {
  std::vector<std::string> Out;
  for (const auto &[Path, Meta] : Entries)
    if (Meta.Type == FileType::File)
      Out.push_back(Path);
  return Out;
}

std::vector<std::string> FileIndex::allDirs() const {
  std::vector<std::string> Out;
  for (const auto &[Path, Meta] : Entries)
    if (Meta.Type == FileType::Directory && Path != "/")
      Out.push_back(Path);
  return Out;
}

namespace {

constexpr uint32_t DirRecordMagic = 0x44524543; // 'DREC'
constexpr uint32_t DirRecordVersion = 1;

/// FNV-1a 32-bit: every step is a bijection of the state, so any single
/// changed byte (a bit flip) changes the checksum.
uint32_t recordChecksum(const uint8_t *Data, size_t Size) {
  uint32_t H = 2166136261u;
  for (size_t I = 0; I != Size; ++I) {
    H ^= Data[I];
    H *= 16777619u;
  }
  return H;
}

/// A name one directory component can carry.
bool isComponent(const std::string &Name) {
  return !Name.empty() && Name != "." && Name != ".." &&
         Name.find('/') == std::string::npos;
}

std::string childPath(const std::string &Dir, const std::string &Name) {
  return Dir == "/" ? "/" + Name : Dir + "/" + Name;
}

} // namespace

std::vector<uint8_t> FileIndex::encodeDir(const std::string &Dir) const {
  const std::set<std::string> *Kids = list(Dir);
  assert(Kids && "encodeDir on a path that is not a directory");
  snap::Writer W(DirRecordMagic, DirRecordVersion);
  W.str(Dir);
  W.u32(static_cast<uint32_t>(Kids->size()));
  for (const std::string &Name : *Kids) {
    const Meta &M = Entries.at(childPath(Dir, Name));
    W.str(Name);
    W.u8(static_cast<uint8_t>(M.Type));
    if (M.Type == FileType::File) {
      W.u64(M.SizeBytes);
      W.u64(M.MtimeNs);
    }
  }
  std::vector<uint8_t> Out = W.take();
  browser::wire::putU32(Out, recordChecksum(Out.data(), Out.size()));
  return Out;
}

bool FileIndex::decodeDir(const std::string &Dir,
                          const std::vector<uint8_t> &Record,
                          std::vector<std::string> &SubDirs) {
  assert(isEmptyDir(Dir) && "decodeDir into a populated directory");
  snap::Reader R(Record, DirRecordMagic, DirRecordVersion);
  if (R.str() != Dir)
    return false;
  // Decode everything before touching the index, so a reject adds nothing.
  std::vector<std::pair<std::string, Meta>> Kids;
  uint32_t N = R.u32();
  for (uint32_t I = 0; I != N && R.ok(); ++I) {
    std::string Name = R.str();
    Meta M;
    uint8_t Type = R.u8();
    if (Type == static_cast<uint8_t>(FileType::File)) {
      M.SizeBytes = R.u64();
      M.MtimeNs = R.u64();
    } else if (Type == static_cast<uint8_t>(FileType::Directory)) {
      M.Type = FileType::Directory;
    } else {
      return false;
    }
    // Names are distinct components, in the set's sorted order.
    if (!isComponent(Name) || (!Kids.empty() && !(Kids.back().first < Name)))
      return false;
    Kids.emplace_back(std::move(Name), M);
  }
  uint32_t Checksum = R.u32();
  if (!R.atEnd() ||
      Checksum != recordChecksum(Record.data(), Record.size() - 4))
    return false;
  std::set<std::string> &Names = Children[Dir];
  for (auto &[Name, M] : Kids) {
    std::string Path = childPath(Dir, Name);
    Entries[Path] = M;
    if (M.Type == FileType::Directory) {
      Children[Path] = {};
      SubDirs.push_back(Path);
    }
    Names.insert(Names.end(), std::move(Name));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// PreloadFile
//===----------------------------------------------------------------------===//

PreloadFile::PreloadFile(browser::BrowserEnv &Env, std::string Path,
                         OpenFlags Flags, std::vector<uint8_t> InitContents,
                         SyncFn Sync)
    : Env(Env), FilePath(std::move(Path)), Flags(Flags),
      Contents(Env, std::move(InitContents)), Size(Contents.size()),
      Sync(std::move(Sync)) {
  if (Flags.Truncate)
    Size = 0;
}

void PreloadFile::read(Buffer &Dst, size_t DstOff, size_t Len, uint64_t Pos,
                       ResultCb<size_t> Done) {
  if (Closed) {
    Done(ApiError(Errno::BadFd, FilePath));
    return;
  }
  if (!Flags.Read) {
    Done(ApiError(Errno::Access, FilePath));
    return;
  }
  if (Pos >= Size) {
    Done(static_cast<size_t>(0)); // EOF.
    return;
  }
  size_t Avail = Size - static_cast<size_t>(Pos);
  size_t N = std::min(Len, Avail);
  N = Contents.copyTo(Dst, DstOff, static_cast<size_t>(Pos),
                      static_cast<size_t>(Pos) + N);
  Done(N);
}

void PreloadFile::write(const Buffer &Src, size_t SrcOff, size_t Len,
                        uint64_t Pos, ResultCb<size_t> Done) {
  if (Closed) {
    Done(ApiError(Errno::BadFd, FilePath));
    return;
  }
  if (!Flags.Write) {
    Done(ApiError(Errno::Access, FilePath));
    return;
  }
  if (Flags.Append)
    Pos = Size;
  size_t End = static_cast<size_t>(Pos) + Len;
  if (End > Contents.size()) {
    // Grow the backing buffer geometrically.
    size_t NewCap = std::max(End, Contents.size() * 2 + 16);
    Buffer Grown(Env, NewCap);
    Contents.copyTo(Grown, 0, 0, Size);
    Contents = std::move(Grown);
  }
  Src.copyTo(Contents, static_cast<size_t>(Pos), SrcOff, SrcOff + Len);
  Size = std::max(Size, End);
  Dirty = true;
  Done(Len);
}

void PreloadFile::stat(ResultCb<Stats> Done) {
  Stats S;
  S.Type = FileType::File;
  S.SizeBytes = Size;
  S.MtimeNs = Env.clock().nowNs();
  Done(S);
}

void PreloadFile::sync(CompletionCb Done) {
  if (Closed) {
    Done(ApiError(Errno::BadFd, FilePath));
    return;
  }
  if (!Dirty) {
    Done(std::nullopt);
    return;
  }
  std::vector<uint8_t> Snapshot(Contents.bytes().begin(),
                                Contents.bytes().begin() + Size);
  auto Self = shared_from_this();
  Sync(FilePath, Snapshot, [Self, Done](std::optional<ApiError> Err) {
    if (!Err)
      Self->Dirty = false;
    Done(Err);
  });
}

void PreloadFile::close(CompletionCb Done) {
  if (Closed) {
    Done(ApiError(Errno::BadFd, FilePath));
    return;
  }
  // Sync-on-close (§5.1).
  auto Self = shared_from_this();
  sync([Self, Done](std::optional<ApiError> Err) {
    Self->Closed = true;
    Done(Err);
  });
}

void PreloadFile::truncate(uint64_t NewSize, CompletionCb Done) {
  if (Closed) {
    Done(ApiError(Errno::BadFd, FilePath));
    return;
  }
  if (!Flags.Write) {
    Done(ApiError(Errno::Access, FilePath));
    return;
  }
  if (NewSize > Size) {
    Buffer Grown(Env, static_cast<size_t>(NewSize));
    Contents.copyTo(Grown, 0, 0, Size);
    Contents = std::move(Grown);
  }
  Size = static_cast<size_t>(NewSize);
  Dirty = true;
  Done(std::nullopt);
}
