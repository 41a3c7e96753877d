//===- tests/test_support.cpp - Support utilities tests ----------------------===//

#include "support/rng.h"
#include "support/socket.h"
#include "support/timer.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <set>

using namespace awdit;

TEST(Rng, DeterministicForSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(Rng, NextBelowInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(Rng, NextBelowCoversDomain) {
  Rng R(7);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(R.nextBelow(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng R(3);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 200; ++I) {
    uint64_t V = R.nextInRange(5, 7);
    EXPECT_GE(V, 5u);
    EXPECT_LE(V, 7u);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 3u);
}

TEST(Rng, NextBoolExtremes) {
  Rng R(9);
  for (int I = 0; I < 50; ++I) {
    EXPECT_FALSE(R.nextBool(0.0));
    EXPECT_TRUE(R.nextBool(1.0));
  }
}

TEST(Rng, NextDoubleUnitInterval) {
  Rng R(11);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Rng, WeightedRespectsZeroWeights) {
  Rng R(13);
  std::vector<double> Weights = {0.0, 1.0, 0.0};
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(R.nextWeighted(Weights), 1u);
}

TEST(Rng, WeightedHitsAllPositive) {
  Rng R(17);
  std::vector<double> Weights = {1.0, 2.0, 1.0};
  std::set<size_t> Seen;
  for (int I = 0; I < 300; ++I)
    Seen.insert(R.nextWeighted(Weights));
  EXPECT_EQ(Seen.size(), 3u);
}

TEST(Rng, ZipfStaysInDomain) {
  Rng R(19);
  for (double Theta : {0.0, 0.5, 1.0, 1.5})
    for (int I = 0; I < 500; ++I)
      EXPECT_LT(R.nextZipf(37, Theta), 37u);
}

TEST(Rng, ZipfSkewsTowardLowIndices) {
  Rng R(23);
  size_t Low = 0;
  constexpr int Samples = 2000;
  for (int I = 0; I < Samples; ++I)
    if (R.nextZipf(100, 1.0) < 10)
      ++Low;
  // Uniform would put ~10% below 10; Zipf(1.0) puts roughly half.
  EXPECT_GT(Low, Samples / 4u);
}

TEST(Rng, ForkDecorrelates) {
  Rng A(31);
  Rng B = A.fork();
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer T;
  double E1 = T.elapsedSeconds();
  EXPECT_GE(E1, 0.0);
  volatile uint64_t Sink = 0;
  for (int I = 0; I < 100000; ++I)
    Sink = Sink + I;
  EXPECT_GE(T.elapsedSeconds(), E1);
}

TEST(Deadline, NonPositiveNeverExpires) {
  Deadline D(0.0);
  EXPECT_FALSE(D.expired());
  Deadline D2(-1.0);
  EXPECT_FALSE(D2.expired());
}

TEST(Deadline, TinyDeadlineExpires) {
  Deadline D(1e-9);
  volatile uint64_t Sink = 0;
  for (int I = 0; I < 100000; ++I)
    Sink = Sink + I;
  EXPECT_TRUE(D.expired());
}

TEST(Socket, AcceptedSocketsDisableNagle) {
  TcpListener Listener;
  std::string Err;
  ASSERT_TRUE(Listener.listenOn("127.0.0.1", 0, &Err)) << Err;
  Socket Client = tcpConnect("127.0.0.1", Listener.port(), &Err);
  ASSERT_TRUE(Client.valid()) << Err;
  Socket Accepted = Listener.accept();
  ASSERT_TRUE(Accepted.valid());
  for (const Socket *S : {&Accepted, &Client}) {
    int NoDelay = 0;
    socklen_t Len = sizeof(NoDelay);
    ASSERT_EQ(::getsockopt(S->fd(), IPPROTO_TCP, TCP_NODELAY, &NoDelay, &Len),
              0);
    EXPECT_NE(NoDelay, 0);
  }
}
