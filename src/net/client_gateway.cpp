#include "net/client_gateway.hpp"

#include <poll.h>

#include "common/serde.hpp"

namespace zlb::net {

ClientGateway::ClientGateway(EventLoop& loop, std::uint16_t port,
                             obs::Registry& metrics, SubmitHandler handler)
    : loop_(loop), handler_(std::move(handler)) {
  const std::pair<SubmitStatus, const char*> statuses[] = {
      {SubmitStatus::kAccepted, "accepted"},
      {SubmitStatus::kMalformed, "malformed"},
      {SubmitStatus::kRejected, "rejected"},
  };
  for (const auto& [status, label] : statuses) {
    replies_[static_cast<std::size_t>(status)] = &metrics.counter(
        "zlb_gateway_submissions_total",
        "Client submissions answered, by reply status",
        {{"status", label}});
  }
  auto bound = listen_loopback(port);
  if (!bound) return;
  listener_ = std::move(bound->first);
  port_ = bound->second;
  loop_.watch(listener_.get(), Interest{true, false},
              [this](bool readable, bool) {
                if (readable) on_listener_ready();
              });
}

ClientGateway::~ClientGateway() {
  if (listener_.valid()) loop_.unwatch(listener_.get());
  for (auto& [fd, conn] : conns_) loop_.unwatch(fd);
}

void ClientGateway::on_listener_ready() {
  for (;;) {
    auto fd = accept_connection(listener_);
    if (!fd) return;
    const int raw = fd->get();
    conns_.emplace(raw, Conn{std::move(*fd), FrameDecoder{}, {}, 0});
    loop_.watch(raw, Interest{true, false},
                [this, raw](bool readable, bool writable) {
                  on_conn_event(raw, readable, writable);
                });
  }
}

void ClientGateway::reply(Conn& conn, SubmitStatus status) {
  const std::uint8_t byte = static_cast<std::uint8_t>(status);
  replies_[byte]->inc();
  append_frame(conn.outbuf, BytesView(&byte, 1));
}

void ClientGateway::on_conn_event(int fd, bool readable, bool writable) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = it->second;

  if (readable) {
    Bytes chunk;
    const IoStatus status = read_available(conn.fd, chunk);
    if (status == IoStatus::kClosed || status == IoStatus::kError) {
      drop(fd);
      return;
    }
    const bool ok = conn.decoder.feed(
        BytesView(chunk.data(), chunk.size()), [&](BytesView payload) {
          try {
            Reader r(payload);
            const chain::Transaction tx = chain::Transaction::deserialize(r);
            if (!r.done() || !tx.well_formed()) {
              reply(conn, SubmitStatus::kMalformed);
              return;
            }
            if (handler_ && handler_(tx)) {
              reply(conn, SubmitStatus::kAccepted);
            } else {
              reply(conn, SubmitStatus::kRejected);
            }
          } catch (const DecodeError&) {
            reply(conn, SubmitStatus::kMalformed);
          }
        });
    if (!ok) {
      drop(fd);
      return;
    }
  }

  if (!conn.outbuf.empty() || writable) {
    const IoStatus status = write_some(conn.fd, conn.outbuf, conn.out_offset);
    if (status == IoStatus::kError) {
      drop(fd);
      return;
    }
    if (conn.out_offset == conn.outbuf.size()) {
      conn.outbuf.clear();
      conn.out_offset = 0;
    }
  }
  update_interest(conn);
}

void ClientGateway::update_interest(const Conn& conn) {
  loop_.set_interest(conn.fd.get(), Interest{true, !conn.outbuf.empty()});
}

void ClientGateway::drop(int fd) {
  loop_.unwatch(fd);
  conns_.erase(fd);
}

std::optional<GatewayClient> GatewayClient::connect(std::uint16_t port) {
  auto fd = connect_loopback(port);
  if (!fd) return std::nullopt;
  // Blocking client: wait for the connect to finish.
  pollfd p{fd->get(), POLLOUT, 0};
  if (::poll(&p, 1, 5000) <= 0 || !connect_finished(*fd)) return std::nullopt;
  return GatewayClient(std::move(*fd));
}

std::optional<SubmitStatus> GatewayClient::submit(const chain::Transaction& tx,
                                                  Duration timeout) {
  const Bytes frame = encode_frame(tx.serialize());
  std::size_t offset = 0;
  const TimePoint deadline = Clock::now() + timeout;
  while (offset < frame.size()) {
    const IoStatus status = write_some(fd_, frame, offset);
    if (status == IoStatus::kError) return std::nullopt;
    if (status == IoStatus::kWouldBlock) {
      pollfd p{fd_.get(), POLLOUT, 0};
      if (Clock::now() >= deadline || ::poll(&p, 1, 100) < 0) {
        return std::nullopt;
      }
    }
  }

  std::optional<SubmitStatus> result;
  while (!result && Clock::now() < deadline) {
    pollfd p{fd_.get(), POLLIN, 0};
    const int rc = ::poll(&p, 1, 100);
    if (rc < 0) return std::nullopt;
    if (rc == 0) continue;
    Bytes chunk;
    const IoStatus status = read_available(fd_, chunk);
    if (status == IoStatus::kClosed || status == IoStatus::kError) {
      return std::nullopt;
    }
    const bool ok = decoder_.feed(
        BytesView(chunk.data(), chunk.size()), [&](BytesView payload) {
          if (!result && payload.size() == 1 && payload[0] >= 1 &&
              payload[0] <= 3) {
            result = static_cast<SubmitStatus>(payload[0]);
          }
        });
    if (!ok) return std::nullopt;
  }
  return result;
}

}  // namespace zlb::net
