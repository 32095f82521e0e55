// Client-facing side of a live replica (§4.2: permissionless clients
// submit transactions to permissioned replicas; the paper uses gRPC
// here, we use the same length-prefix framed TCP as the replica links).
// The gateway is a second listener on the node's event loop: any client
// may connect, each frame is one serialized signed transaction, and the
// gateway answers each submission with a one-byte ACK (accepted /
// rejected) so wallets can retry elsewhere.
#pragma once

#include <array>
#include <functional>
#include <unordered_map>

#include "chain/tx.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace zlb::net {

enum class SubmitStatus : std::uint8_t {
  kAccepted = 1,
  kMalformed = 2,
  kRejected = 3,  ///< structurally valid but refused (e.g. queue full)
};

class ClientGateway {
 public:
  /// Decides whether to accept a structurally valid transaction
  /// (typically: enqueue into the node's mempool and return true).
  using SubmitHandler = std::function<bool(const chain::Transaction&)>;

  /// Counts every answered submission into `metrics`, by reply status
  /// (zlb_gateway_submissions_total{status}); `metrics` must outlive
  /// the gateway.
  ClientGateway(EventLoop& loop, std::uint16_t port, obs::Registry& metrics,
                SubmitHandler handler);
  ~ClientGateway();

  ClientGateway(const ClientGateway&) = delete;
  ClientGateway& operator=(const ClientGateway&) = delete;

  [[nodiscard]] bool listening() const { return listener_.valid(); }
  [[nodiscard]] std::uint16_t local_port() const { return port_; }

 private:
  struct Conn {
    Fd fd;
    FrameDecoder decoder;
    Bytes outbuf;
    std::size_t out_offset = 0;
  };

  void on_listener_ready();
  void on_conn_event(int fd, bool readable, bool writable);
  void drop(int fd);
  /// Queues the one-byte ACK and counts it under its status.
  void reply(Conn& conn, SubmitStatus status);
  void update_interest(const Conn& conn);

  EventLoop& loop_;
  SubmitHandler handler_;
  Fd listener_;
  std::uint16_t port_ = 0;
  std::unordered_map<int, Conn> conns_;
  /// Submissions answered, indexed by SubmitStatus (1..3).
  std::array<obs::Counter*, 4> replies_{};
};

/// Blocking client for wallets/tools and tests: connects to a gateway,
/// submits transactions one at a time and waits for each ACK.
class GatewayClient {
 public:
  /// nullopt on connection failure.
  [[nodiscard]] static std::optional<GatewayClient> connect(
      std::uint16_t port);

  /// Sends `tx` and waits (blocking, with timeout) for the ACK.
  [[nodiscard]] std::optional<SubmitStatus> submit(
      const chain::Transaction& tx,
      Duration timeout = std::chrono::seconds(5));

 private:
  explicit GatewayClient(Fd fd) : fd_(std::move(fd)) {}

  Fd fd_;
  FrameDecoder decoder_;
};

}  // namespace zlb::net
