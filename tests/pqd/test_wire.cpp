// pqd-wire/1 codec tests: byte-exact layout and round-trips.
#include "pqd/request.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace {

using namespace pqd;

TEST(Wire, RequestRoundTripsEveryOp) {
  for (OpKind op : {OpKind::kInsert, OpKind::kDeleteMin, OpKind::kFlush}) {
    const Request in{op, 0x1122334455667788LL, 0x99aabbccddeeff00ULL};
    std::uint8_t buf[kWireRecordSize];
    encode_request(in, buf);
    Request out;
    ASSERT_TRUE(decode_request(buf, out));
    EXPECT_EQ(out.op, in.op);
    EXPECT_EQ(out.key, in.key);
    EXPECT_EQ(out.value, in.value);
  }
}

TEST(Wire, ResponseRoundTripsEveryStatus) {
  for (Status st : {Status::kOk, Status::kEmpty}) {
    const Response in{st, -42, 7};
    std::uint8_t buf[kWireRecordSize];
    encode_response(in, buf);
    Response out;
    ASSERT_TRUE(decode_response(buf, out));
    EXPECT_EQ(out.status, in.status);
    EXPECT_EQ(out.key, in.key);
    EXPECT_EQ(out.value, in.value);
  }
}

TEST(Wire, LayoutIsLittleEndianFixedSize) {
  static_assert(kWireRecordSize == 17);
  const Request in{OpKind::kDeleteMin, 0x0102030405060708LL, 0x1112131415161718ULL};
  std::uint8_t buf[kWireRecordSize];
  encode_request(in, buf);
  EXPECT_EQ(buf[0], 1);     // opcode
  EXPECT_EQ(buf[1], 0x08);  // key LSB first
  EXPECT_EQ(buf[8], 0x01);
  EXPECT_EQ(buf[9], 0x18);  // value LSB first
  EXPECT_EQ(buf[16], 0x11);
}

TEST(Wire, NegativeKeySurvives) {
  const Request in{OpKind::kInsert, std::numeric_limits<Key>::min(), 0};
  std::uint8_t buf[kWireRecordSize];
  encode_request(in, buf);
  Request out;
  ASSERT_TRUE(decode_request(buf, out));
  EXPECT_EQ(out.key, std::numeric_limits<Key>::min());
}

TEST(Wire, RejectsUnknownOpcodeAndStatus) {
  std::uint8_t buf[kWireRecordSize] = {};
  buf[0] = 3;  // one past kFlush
  Request req;
  EXPECT_FALSE(decode_request(buf, req));
  buf[0] = 0xff;
  EXPECT_FALSE(decode_request(buf, req));
  Response resp;
  buf[0] = 2;  // one past kEmpty
  EXPECT_FALSE(decode_response(buf, resp));
}

TEST(Wire, SentinelOrdering) {
  // The empty-shard sentinel must sit above every legal user key.
  EXPECT_LT(kMaxUserKey, kEmptyKey);
  EXPECT_EQ(kEmptyKey, std::numeric_limits<Key>::max());
}

}  // namespace
