// The TCP substrate: frame codec (incremental decoding across
// arbitrary stream splits, poisoning), the poll event loop (timers,
// fd readiness) and the TcpTransport (handshake, queuing before
// connect, large payloads, bad-peer rejection).
#include <gtest/gtest.h>

#include <thread>

#include "common/rng.hpp"
#include "common/serde.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace zlb::net {
namespace {

Bytes pattern_bytes(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return b;
}

TEST(Frame, EncodesLengthPrefix) {
  const Bytes frame = encode_frame(to_bytes("abc"));
  ASSERT_EQ(frame.size(), 7u);
  EXPECT_EQ(frame[0], 3u);
  EXPECT_EQ(frame[1], 0u);
  EXPECT_EQ(frame[2], 0u);
  EXPECT_EQ(frame[3], 0u);
  EXPECT_EQ(frame[4], 'a');
}

TEST(Frame, RoundtripSingle) {
  const Bytes payload = pattern_bytes(1000, 7);
  const Bytes wire = encode_frame(BytesView(payload.data(), payload.size()));
  FrameDecoder dec;
  std::vector<Bytes> got;
  ASSERT_TRUE(dec.feed(BytesView(wire.data(), wire.size()),
                       [&](BytesView p) { got.emplace_back(p.begin(), p.end()); }));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], payload);
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

TEST(Frame, EmptyPayloadIsAFrame) {
  const Bytes wire = encode_frame({});
  FrameDecoder dec;
  int frames = 0;
  ASSERT_TRUE(dec.feed(BytesView(wire.data(), wire.size()),
                       [&](BytesView p) {
                         EXPECT_TRUE(p.empty());
                         ++frames;
                       }));
  EXPECT_EQ(frames, 1);
}

TEST(Frame, MultipleFramesOneChunk) {
  Bytes wire;
  for (int i = 0; i < 10; ++i) {
    const Bytes p = pattern_bytes(static_cast<std::size_t>(i * 13), 3);
    append_frame(wire, BytesView(p.data(), p.size()));
  }
  FrameDecoder dec;
  int frames = 0;
  ASSERT_TRUE(dec.feed(BytesView(wire.data(), wire.size()),
                       [&](BytesView) { ++frames; }));
  EXPECT_EQ(frames, 10);
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

TEST(Frame, OversizedFramePoisons) {
  Bytes wire(4);
  const std::uint32_t huge = (64u << 20) + 1;
  wire[0] = static_cast<std::uint8_t>(huge & 0xff);
  wire[1] = static_cast<std::uint8_t>((huge >> 8) & 0xff);
  wire[2] = static_cast<std::uint8_t>((huge >> 16) & 0xff);
  wire[3] = static_cast<std::uint8_t>((huge >> 24) & 0xff);
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(BytesView(wire.data(), wire.size()),
                        [](BytesView) { FAIL() << "delivered from poison"; }));
  EXPECT_TRUE(dec.poisoned());
  // Poisoned decoders never deliver again.
  const Bytes ok = encode_frame(to_bytes("x"));
  EXPECT_FALSE(dec.feed(BytesView(ok.data(), ok.size()),
                        [](BytesView) { FAIL() << "poison not sticky"; }));
}

class FrameSplits : public ::testing::TestWithParam<std::uint64_t> {};

// Property: any split of the byte stream yields the same frames.
TEST_P(FrameSplits, ArbitrarySplitsPreserveFrames) {
  Rng rng(GetParam());
  std::vector<Bytes> payloads;
  Bytes wire;
  const int count = 1 + static_cast<int>(rng.next() % 8);
  for (int i = 0; i < count; ++i) {
    payloads.push_back(pattern_bytes(rng.next() % 300,
                                     static_cast<std::uint8_t>(rng.next())));
    append_frame(wire, BytesView(payloads.back().data(),
                                 payloads.back().size()));
  }

  FrameDecoder dec;
  std::vector<Bytes> got;
  std::size_t pos = 0;
  while (pos < wire.size()) {
    const std::size_t step =
        std::min<std::size_t>(1 + rng.next() % 17, wire.size() - pos);
    ASSERT_TRUE(dec.feed(BytesView(wire.data() + pos, step),
                         [&](BytesView p) {
                           got.emplace_back(p.begin(), p.end());
                         }));
    pos += step;
  }
  EXPECT_EQ(got, payloads);
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameSplits,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(EventLoop, TimersFireInOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(std::chrono::milliseconds(30), [&] { order.push_back(3); });
  loop.schedule(std::chrono::milliseconds(10), [&] { order.push_back(1); });
  loop.schedule(std::chrono::milliseconds(20), [&] {
    order.push_back(2);
    loop.schedule(std::chrono::milliseconds(25), [&] {
      order.push_back(4);
      loop.stop();
    });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventLoop, CancelPreventsFiring) {
  EventLoop loop;
  bool fired = false;
  const auto id =
      loop.schedule(std::chrono::milliseconds(5), [&] { fired = true; });
  loop.cancel(id);
  loop.schedule(std::chrono::milliseconds(20), [&] { loop.stop(); });
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, RunReturnsWhenNothingRemains) {
  EventLoop loop;
  int fired = 0;
  loop.schedule(std::chrono::milliseconds(1), [&] { ++fired; });
  loop.run();  // must not hang once the only timer fired
  EXPECT_EQ(fired, 1);
}

TEST(EventLoop, TimerWaitDoesNotSpin) {
  // The wait before a timer runs at full resolution: a wait truncated
  // to whole milliseconds spins zero-timeout polls through the last
  // sub-millisecond before every deadline.
  EventLoop loop;
  bool fired = false;
  loop.schedule(std::chrono::milliseconds(20), [&] { fired = true; });
  int polls = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (!fired && Clock::now() < deadline) {
    loop.poll_once(std::chrono::milliseconds(100));
    ++polls;
  }
  EXPECT_TRUE(fired);
  EXPECT_LE(polls, 5);
}

TEST(EventLoop, LagHistogramRecordsTimerLateness) {
  obs::Registry registry;
  obs::Histogram& lag =
      registry.histogram("zlb_event_loop_lag_seconds", "lag", 1e-9);
  EventLoop loop;
  loop.set_lag_histogram(&lag);
  loop.schedule(std::chrono::milliseconds(1), [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  });
  loop.schedule(std::chrono::milliseconds(1), [] {});
  loop.run();
  const obs::HistogramSnapshot snap = lag.snapshot();
  ASSERT_EQ(snap.count, 2u);
  // The second timer waited behind the first one's 25 ms callback.
  EXPECT_GE(snap.sum, 20'000'000);
  EXPECT_GE(snap.quantile(1.0), 20e6);
}

TEST(Socket, ListenOnEphemeralPortReportsIt) {
  auto bound = listen_loopback(0);
  ASSERT_TRUE(bound.has_value());
  EXPECT_GT(bound->second, 0);
  EXPECT_TRUE(bound->first.valid());
}

// Drives two transports on one thread until `done` or the deadline.
void drive(EventLoop& loop, const std::function<bool()>& done,
           std::chrono::milliseconds budget) {
  const auto deadline = Clock::now() + budget;
  while (!done() && Clock::now() < deadline) {
    loop.poll_once(std::chrono::milliseconds(5));
  }
}

struct Pair {
  EventLoop loop;
  std::unique_ptr<TcpTransport> a;  // id 0: listens
  std::unique_ptr<TcpTransport> b;  // id 1: connects down to 0

  Pair() {
    a = std::make_unique<TcpTransport>(loop, TransportConfig{0, 0, {}});
    b = std::make_unique<TcpTransport>(loop, TransportConfig{1, 0, {}});
    a->set_peers({{1, b->local_port()}});
    b->set_peers({{0, a->local_port()}});
  }
};

TEST(TcpTransport, HandshakeAndBidirectionalDelivery) {
  Pair pair;
  std::vector<std::pair<ReplicaId, Bytes>> at_a;
  std::vector<std::pair<ReplicaId, Bytes>> at_b;
  pair.a->set_handler([&](ReplicaId from, BytesView p) {
    at_a.emplace_back(from, Bytes(p.begin(), p.end()));
  });
  pair.b->set_handler([&](ReplicaId from, BytesView p) {
    at_b.emplace_back(from, Bytes(p.begin(), p.end()));
  });
  pair.a->start();
  pair.b->start();
  pair.a->send(1, to_bytes("from-a"));
  pair.b->send(0, to_bytes("from-b"));

  drive(pair.loop, [&] { return !at_a.empty() && !at_b.empty(); },
        std::chrono::milliseconds(2000));
  ASSERT_EQ(at_a.size(), 1u);
  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_EQ(at_a[0].first, 1u);
  EXPECT_EQ(at_a[0].second, to_bytes("from-b"));
  EXPECT_EQ(at_b[0].first, 0u);
  EXPECT_EQ(at_b[0].second, to_bytes("from-a"));
  EXPECT_TRUE(pair.a->connected(1));
  EXPECT_TRUE(pair.b->connected(0));
}

TEST(TcpTransport, QueuedBeforeConnectIsDeliveredAfter) {
  Pair pair;
  std::vector<Bytes> got;
  pair.a->set_handler(
      [&](ReplicaId, BytesView p) { got.emplace_back(p.begin(), p.end()); });
  // Queue three frames on b before anyone starts connecting.
  pair.b->send(0, to_bytes("one"));
  pair.b->send(0, to_bytes("two"));
  pair.b->send(0, to_bytes("three"));
  pair.a->start();
  pair.b->start();
  drive(pair.loop, [&] { return got.size() == 3; },
        std::chrono::milliseconds(2000));
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], to_bytes("one"));
  EXPECT_EQ(got[1], to_bytes("two"));
  EXPECT_EQ(got[2], to_bytes("three"));
}

TEST(TcpTransport, DownLinkQueueIsBoundedDropOldest) {
  // A peer that never comes up must not pin every frame ever sent to
  // it: beyond the configured bound the oldest frames are shed (the
  // consensus layer's resync / checkpoint transfer recovers history,
  // not the socket buffer). The newest frames survive and arrive once
  // the link finally heals.
  EventLoop loop;
  TransportConfig cfg_a{0, 0, {}};
  TransportConfig cfg_b{1, 0, {}};
  cfg_b.down_link_buffer_bytes = 256;
  TcpTransport a(loop, cfg_a);
  TcpTransport b(loop, cfg_b);
  a.set_peers({{1, b.local_port()}});
  b.set_peers({{0, a.local_port()}});

  std::vector<Bytes> got;
  a.set_handler(
      [&](ReplicaId, BytesView p) { got.emplace_back(p.begin(), p.end()); });
  // 50 x 32-byte frames >> 256-byte cap, all queued while the link is
  // down (b never started connecting yet).
  for (int i = 0; i < 50; ++i) {
    Bytes frame(32, static_cast<std::uint8_t>(i));
    b.send(0, BytesView(frame.data(), frame.size()));
  }
  EXPECT_GT(b.stats().frames_dropped, 0u);
  a.start();
  b.start();
  drive(loop, [&] { return !got.empty() && b.stats().frames_sent > 0; },
        std::chrono::milliseconds(2000));
  ASSERT_FALSE(got.empty());
  EXPECT_LT(got.size(), 50u) << "the backlog must have been shed";
  // What did arrive is the newest suffix, in order.
  EXPECT_EQ(got.back().front(), 49u);
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_EQ(got[i].front(), got[i - 1].front() + 1);
  }
  // An up link is never trimmed: steady traffic all arrives.
  got.clear();
  for (int i = 0; i < 50; ++i) {
    Bytes frame(32, static_cast<std::uint8_t>(100 + i));
    b.send(0, BytesView(frame.data(), frame.size()));
  }
  drive(loop, [&] { return got.size() == 50; },
        std::chrono::milliseconds(2000));
  EXPECT_EQ(got.size(), 50u);
}

TEST(TcpTransport, LargePayloadSurvivesPartialWrites) {
  Pair pair;
  const Bytes big = pattern_bytes(3u << 20, 42);  // 3 MiB >> socket buffers
  Bytes got;
  pair.a->set_handler(
      [&](ReplicaId, BytesView p) { got.assign(p.begin(), p.end()); });
  pair.a->start();
  pair.b->start();
  pair.b->send(0, BytesView(big.data(), big.size()));
  drive(pair.loop, [&] { return !got.empty(); },
        std::chrono::milliseconds(5000));
  EXPECT_EQ(got, big);
}

TEST(TcpTransport, SelfSendLoopsBackThroughTheLoop) {
  EventLoop loop;
  TcpTransport t(loop, TransportConfig{5, 0, {}});
  bool delivered = false;
  bool inline_delivery = true;
  t.set_handler([&](ReplicaId from, BytesView p) {
    EXPECT_EQ(from, 5u);
    EXPECT_EQ(Bytes(p.begin(), p.end()), to_bytes("self"));
    delivered = true;
  });
  t.send(5, to_bytes("self"));
  inline_delivery = delivered;  // must not have been delivered inline
  drive(loop, [&] { return delivered; }, std::chrono::milliseconds(1000));
  EXPECT_FALSE(inline_delivery);
  EXPECT_TRUE(delivered);
}

TEST(TcpTransport, SendToUnknownPeerIsDropped) {
  EventLoop loop;
  TcpTransport t(loop, TransportConfig{0, 0, {}});
  t.send(99, to_bytes("void"));  // must not crash or queue forever
  EXPECT_FALSE(t.connected(99));
}

TEST(TcpTransport, RejectsConnectionWithBadMagic) {
  EventLoop loop;
  TcpTransport a(loop, TransportConfig{0, 0, {{1, 1}}});
  // Raw client that sends garbage instead of a HELLO.
  auto client = connect_loopback(a.local_port());
  ASSERT_TRUE(client.has_value());
  const Bytes garbage = encode_frame(to_bytes("not-a-hello"));
  std::size_t offset = 0;
  drive(loop, [&] { return false; }, std::chrono::milliseconds(50));
  (void)write_some(*client, garbage, offset);
  drive(loop, [&] { return a.stats().handshake_failures > 0; },
        std::chrono::milliseconds(2000));
  EXPECT_GE(a.stats().handshake_failures, 1u);
  EXPECT_EQ(a.connected_count(), 0u);
}

TEST(TcpTransport, RejectsHelloFromWrongDirection) {
  // Peer ids <= ours must not initiate connections to us.
  EventLoop loop;
  TcpTransport a(loop, TransportConfig{5, 0, {{3, 1}}});
  auto client = connect_loopback(a.local_port());
  ASSERT_TRUE(client.has_value());
  Writer w;
  w.u32(0x5a4c4231);
  w.u32(3);  // id 3 < 5: 5 is responsible for connecting, not 3
  const Bytes hello = encode_frame(BytesView(w.data().data(), w.data().size()));
  std::size_t offset = 0;
  drive(loop, [&] { return false; }, std::chrono::milliseconds(50));
  (void)write_some(*client, hello, offset);
  drive(loop, [&] { return a.stats().handshake_failures > 0; },
        std::chrono::milliseconds(2000));
  EXPECT_GE(a.stats().handshake_failures, 1u);
}

}  // namespace
}  // namespace zlb::net
namespace zlb::net {
namespace {

// A peer that dies and comes back: the listener side must adopt the
// replacement connection and keep delivering (link replacement path).
TEST(TcpTransport, PeerReconnectIsAdopted) {
  EventLoop loop;
  TcpTransport a(loop, TransportConfig{0, 0, {{2, 1}}});
  std::vector<Bytes> got;
  a.set_handler(
      [&](ReplicaId, BytesView p) { got.emplace_back(p.begin(), p.end()); });

  auto hello_frame = [] {
    Writer w;
    w.u32(0x5a4c4231);
    w.u32(2);
    return encode_frame(BytesView(w.data().data(), w.data().size()));
  };

  // First incarnation of peer 2.
  {
    auto client = connect_loopback(a.local_port());
    ASSERT_TRUE(client.has_value());
    Bytes wire = hello_frame();
    append_frame(wire, to_bytes("first-life"));
    std::size_t offset = 0;
    drive(loop, [&] { return false; }, std::chrono::milliseconds(50));
    ASSERT_NE(write_some(*client, wire, offset), IoStatus::kError);
    drive(loop, [&] { return !got.empty(); }, std::chrono::milliseconds(2000));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], to_bytes("first-life"));
    EXPECT_TRUE(a.connected(2));
  }  // fd closes: peer 2 dies

  // The transport notices the death on its next poll.
  drive(loop, [&] { return !a.connected(2); },
        std::chrono::milliseconds(2000));
  EXPECT_FALSE(a.connected(2));

  // Second incarnation is adopted and delivers again.
  auto client = connect_loopback(a.local_port());
  ASSERT_TRUE(client.has_value());
  Bytes wire = hello_frame();
  append_frame(wire, to_bytes("second-life"));
  std::size_t offset = 0;
  drive(loop, [&] { return false; }, std::chrono::milliseconds(50));
  ASSERT_NE(write_some(*client, wire, offset), IoStatus::kError);
  drive(loop, [&] { return got.size() == 2; },
        std::chrono::milliseconds(2000));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], to_bytes("second-life"));
  EXPECT_TRUE(a.connected(2));
}

}  // namespace
}  // namespace zlb::net
