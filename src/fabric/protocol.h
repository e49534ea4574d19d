// Wire protocol of the distributed sweep fabric.
//
// Controller and workers exchange line-delimited text frames over a byte
// stream (unix-domain or TCP socket, see fabric/transport.h). Every frame is
// one line: a type word, `key=value` fields in a fixed order, and a trailing
// ` crc=<hex>` carrying the FNV-1a checksum of everything before it — the
// same checksum the checkpoint journal uses, so a torn or corrupted frame is
// detected exactly like a torn journal line.
//
//   hello v=2 fp=<fingerprint> name=<worker-name>
//   welcome worker=<id> hb_ms=<interval>
//   reject reason=<token>
//   request worker=<id> want=<cells>
//   lease id=<id> cells=<c1>,<c2>,...          (strictly increasing)
//   wait ms=<held>
//   done
//   result worker=<id> lease=<id> entry=<journal entry line>
//   heartbeat worker=<id> done=<cells-completed>
//   bye worker=<id>
//
// A result frame embeds the finished cell verbatim as a checkpoint journal
// entry (exp/checkpoint.h): the controller appends those bytes to its
// journal unchanged, so a cell computed remotely is byte-identical to one
// computed in-process — which is what makes duplicate delivery (a retry, a
// reassigned lease finishing twice) detectable by plain byte comparison.
//
// A request that finds no free cell is held at the controller (long poll)
// until a lease or `done` can answer it. `wait` ends a hold that lasted a
// heartbeat interval with nothing to give: it means "request again now",
// and its value only reports how long the request was held.
//
// Decoding is strict: a line decodes only when re-encoding the parsed frame
// reproduces it byte for byte. Anything else — bad checksum, unknown type,
// non-canonical numbers, reordered fields — is rejected, never half-read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace chronos::fabric {

/// Protocol version spoken by this binary; hello frames carrying any other
/// version are rejected. Version 2 made `wait` mean "request again now": a
/// version-1 worker would sleep on it, and a version-2 worker would spin on
/// a version-1 controller's immediate waits.
inline constexpr std::uint64_t kProtocolVersion = 2;

/// How long a worker waits for the reply to a request before taking it for
/// lost and asking again. The controller holds a parked request for at most
/// one heartbeat interval, which is always shorter.
inline constexpr std::uint64_t reply_timeout_ms(std::uint64_t heartbeat_ms) {
  return heartbeat_ms * 4 > 500 ? heartbeat_ms * 4 : 500;
}

/// Upper bound on one encoded frame (and thus one received line). A peer
/// that streams more than this without a newline is treated as broken.
inline constexpr std::size_t kMaxFrameBytes = 1 << 16;

enum class FrameType {
  kHello,      ///< worker -> controller: join (version, fingerprint, name)
  kWelcome,    ///< controller -> worker: assigned id + heartbeat interval
  kReject,     ///< controller -> worker: join refused (then close)
  kRequest,    ///< worker -> controller: ask for up to `want` cells
  kLease,      ///< controller -> worker: cells to compute under a lease id
  kWait,       ///< controller -> worker: nothing freed up; request again now
  kDone,       ///< controller -> worker: sweep complete, disconnect
  kResult,     ///< worker -> controller: one finished cell (journal entry)
  kHeartbeat,  ///< worker -> controller: liveness + progress count
  kBye,        ///< worker -> controller: graceful disconnect
};

/// One decoded frame. Fields outside the frame's type are left defaulted.
struct Frame {
  FrameType type = FrameType::kHello;
  std::uint64_t worker = 0;  ///< welcome/request/result/heartbeat/bye
  std::uint64_t lease = 0;   ///< lease/result: lease id
  /// hello: protocol version; welcome: heartbeat interval ms; request:
  /// cells wanted; wait: ms the request was held (informational);
  /// heartbeat: cells completed so far.
  std::uint64_t value = 0;
  std::string fingerprint;          ///< hello: spec fingerprint
  std::string name;                 ///< hello: worker display name
  std::string reason;               ///< reject
  std::vector<std::uint64_t> cells; ///< lease: strictly increasing indices
  std::string entry;                ///< result: encoded journal entry line
};

/// Encodes a frame as its canonical line (no trailing newline), checksum
/// included. Throws PreconditionError on unencodable contents (an empty or
/// space-containing token, an empty or non-increasing lease cell list, an
/// entry with an embedded newline, a frame beyond kMaxFrameBytes).
std::string encode_frame(const Frame& frame);

/// Strict decode: returns the frame only when `line` is the exact canonical
/// encoding of it (valid checksum included); nullopt otherwise. Never
/// throws on wire input.
std::optional<Frame> decode_frame(const std::string& line);

}  // namespace chronos::fabric
