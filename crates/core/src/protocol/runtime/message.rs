//! The protocol's wire grammar.
//!
//! Every message the runtime exchanges is one of six serialized frames.
//! The encoding is deliberately primitive — a tag byte followed by
//! fixed-width little-endian fields, gains as raw IEEE-754 bits — so a
//! frame's byte length is knowable from its tag and a decode either
//! reproduces the sent message exactly (bit-for-bit, NaNs included) or
//! fails with a [`DecodeError`] saying why. [`SimNet`](super::SimNet)
//! carries encoded frames, not values: every delivery in every run
//! exercises the round trip.
//!
//! Gain claims are commitment-bound: a `Propose` carries a
//! [`gain_commitment`] hash over `(peer, from, to, gain_bits, nonce)`
//! and the matching `Commit` reveals the gain bits and nonce, so an
//! auditor holding only the frames can prove a peer changed its story
//! between proposal and commit.

use recluster_overlay::MsgKind;
use recluster_types::{ClusterId, PeerId};

/// Why a representative denied its cluster's relocation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenyReason {
    /// The anti-cycle lock rule blocked the request: a higher-ranked
    /// grant already locked the source against leaves or the
    /// destination against joins.
    Locked,
    /// The request named its own cluster as destination (no-op move).
    SelfMove,
}

/// One protocol message. §3.2's verbal protocol, made concrete:
/// members *propose*, representatives *grant* or *deny*, granted peers
/// *commit*, and committed moves are announced through *summary
/// updates*. `Heartbeat` is the explicit "nothing to report" frame that
/// lets collectors distinguish silence from loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Message {
    /// A relocation proposal: `peer` wants to leave `from` for `to`,
    /// claiming `claimed_gain`. Sent member → representative as the
    /// phase-1 gain report, and relayed representative →
    /// representative verbatim as the cluster's forwarded request (the
    /// receiver tells the two apart by `from`: its own cluster id means
    /// a report). The gain is *claimed*: the runtime takes it on faith
    /// in-round and audits it against observed statistics after the
    /// fact ([`EvidenceLog`](super::EvidenceLog)).
    Propose {
        /// The peer that wants to relocate.
        peer: PeerId,
        /// Its current cluster.
        from: ClusterId,
        /// The cluster it wants to join.
        to: ClusterId,
        /// The gain it claims the move yields (self-reported).
        claimed_gain: f64,
        /// [`gain_commitment`] over the gain this peer will reveal at
        /// `Commit`. Representatives relay it verbatim; the auditor
        /// checks the reveal against it.
        commitment: u64,
    },
    /// "Nothing to propose": sent member → representative in place of a
    /// report, and representative → representative in place of a
    /// forwarded request. `from` is the sender's cluster.
    Heartbeat {
        /// The reporting peer.
        peer: PeerId,
        /// Its cluster.
        from: ClusterId,
    },
    /// Representative → its winning member: the cluster's request
    /// survived the lock-rule pass; execute the move.
    Grant {
        /// Source cluster of the granted request.
        src: ClusterId,
        /// Destination cluster.
        dst: ClusterId,
        /// The granted peer.
        peer: PeerId,
        /// The claimed gain the grant was ranked by.
        gain: f64,
    },
    /// Representative → its winning member: the request lost.
    Deny {
        /// Source cluster of the denied request.
        src: ClusterId,
        /// Destination cluster.
        dst: ClusterId,
        /// The denied peer.
        peer: PeerId,
        /// Why it was denied.
        reason: DenyReason,
    },
    /// Granted peer → the affected representatives: the relocation is
    /// executed. The runtime applies the move to the [`System`] when the
    /// first copy of this frame is delivered — a commit lost to the
    /// network is a relocation that never happened.
    ///
    /// [`System`]: crate::system::System
    Commit {
        /// The relocating peer.
        peer: PeerId,
        /// The cluster it left.
        from: ClusterId,
        /// The cluster it joined.
        to: ClusterId,
        /// The claimed gain, restated for the audit trail. This is the
        /// *reveal*: [`gain_commitment`] over these bits and `nonce`
        /// must reproduce the `Propose` commitment.
        claimed_gain: f64,
        /// The nonce that blinded the commitment.
        nonce: u64,
    },
    /// Post-commit broadcast: `cluster` now has `size` members. Sent,
    /// charged and consumed by every state machine in any state; no
    /// decision reads it yet.
    SummaryUpdate {
        /// The cluster whose membership changed.
        cluster: ClusterId,
        /// Its new size.
        size: u32,
    },
}

/// Why a frame failed to decode. The codec never guesses: every
/// rejection is attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The first byte is not a known message tag.
    UnknownTag(u8),
    /// The buffer ended before the tag's fixed-width fields did.
    Truncated,
    /// Bytes remained after the tag's last field.
    TrailingBytes,
    /// An enum field held an undefined discriminant.
    BadDiscriminant(u8),
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::Truncated => write!(f, "frame shorter than its tag demands"),
            DecodeError::TrailingBytes => write!(f, "frame longer than its tag demands"),
            DecodeError::BadDiscriminant(d) => write!(f, "undefined enum discriminant {d}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The commitment a `Propose` carries and a `Commit` must reproduce:
/// FNV-1a over the little-endian bytes of `(peer, from, to, gain_bits,
/// nonce)`. Not cryptographic — the threat model is a selfish peer in a
/// deterministic simulation, not an adversary with a hash cracker — but
/// any change to the gain bits between proposal and reveal changes the
/// digest.
pub fn gain_commitment(
    peer: PeerId,
    from: ClusterId,
    to: ClusterId,
    gain_bits: u64,
    nonce: u64,
) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    eat(&peer.0.to_le_bytes());
    eat(&from.0.to_le_bytes());
    eat(&to.0.to_le_bytes());
    eat(&gain_bits.to_le_bytes());
    eat(&nonce.to_le_bytes());
    hash
}

const TAG_PROPOSE: u8 = 1;
const TAG_HEARTBEAT: u8 = 2;
const TAG_GRANT: u8 = 3;
const TAG_DENY: u8 = 4;
const TAG_COMMIT: u8 = 5;
const TAG_SUMMARY: u8 = 6;

/// Byte length of the longest frame: a `Propose` or `Commit` (tag,
/// three `u32`s, two 8-byte fields).
pub(crate) const MAX_FRAME_LEN: usize = 29;

/// One encoded frame held inline: the wire bytes in a fixed
/// [`MAX_FRAME_LEN`]-byte buffer plus their length, so carrying a frame
/// allocates nothing. [`Message::frame`] builds one;
/// [`as_bytes`](Frame::as_bytes) is what [`Message::decode`] reads.
#[derive(Debug)]
pub(crate) struct Frame {
    len: u8,
    bytes: [u8; MAX_FRAME_LEN],
}

impl Frame {
    /// The encoded bytes.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }

    fn put(&mut self, field: &[u8]) {
        let start = usize::from(self.len);
        self.bytes[start..start + field.len()].copy_from_slice(field);
        self.len += field.len() as u8;
    }

    fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Option<u8> {
        let v = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let end = self.pos.checked_add(4)?;
        let v = u32::from_le_bytes(self.bytes.get(self.pos..end)?.try_into().ok()?);
        self.pos = end;
        Some(v)
    }

    fn u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let v = u64::from_le_bytes(self.bytes.get(self.pos..end)?.try_into().ok()?);
        self.pos = end;
        Some(v)
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

impl Message {
    /// Serializes the message to its wire frame, held inline.
    pub(crate) fn frame(&self) -> Frame {
        let mut out = Frame {
            len: 0,
            bytes: [0; MAX_FRAME_LEN],
        };
        match *self {
            Message::Propose {
                peer,
                from,
                to,
                claimed_gain,
                commitment,
            } => {
                out.put(&[TAG_PROPOSE]);
                out.put_u32(peer.0);
                out.put_u32(from.0);
                out.put_u32(to.0);
                out.put_f64(claimed_gain);
                out.put_u64(commitment);
            }
            Message::Heartbeat { peer, from } => {
                out.put(&[TAG_HEARTBEAT]);
                out.put_u32(peer.0);
                out.put_u32(from.0);
            }
            Message::Grant {
                src,
                dst,
                peer,
                gain,
            } => {
                out.put(&[TAG_GRANT]);
                out.put_u32(src.0);
                out.put_u32(dst.0);
                out.put_u32(peer.0);
                out.put_f64(gain);
            }
            Message::Deny {
                src,
                dst,
                peer,
                reason,
            } => {
                out.put(&[TAG_DENY]);
                out.put_u32(src.0);
                out.put_u32(dst.0);
                out.put_u32(peer.0);
                out.put(&[match reason {
                    DenyReason::Locked => 0,
                    DenyReason::SelfMove => 1,
                }]);
            }
            Message::Commit {
                peer,
                from,
                to,
                claimed_gain,
                nonce,
            } => {
                out.put(&[TAG_COMMIT]);
                out.put_u32(peer.0);
                out.put_u32(from.0);
                out.put_u32(to.0);
                out.put_f64(claimed_gain);
                out.put_u64(nonce);
            }
            Message::SummaryUpdate { cluster, size } => {
                out.put(&[TAG_SUMMARY]);
                out.put_u32(cluster.0);
                out.put_u32(size);
            }
        }
        out
    }

    /// Serializes the message to its wire frame. The fabric carries the
    /// same bytes inline, without this buffer.
    pub fn encode(&self) -> Vec<u8> {
        self.frame().as_bytes().to_vec()
    }

    /// Parses a wire frame. Rejects an unknown tag, a short buffer,
    /// trailing bytes and invalid enum discriminants with the matching
    /// [`DecodeError`] — a decode never guesses.
    pub fn decode(bytes: &[u8]) -> Result<Message, DecodeError> {
        use DecodeError::Truncated;
        let mut r = Reader { bytes, pos: 0 };
        let msg = match r.u8().ok_or(Truncated)? {
            TAG_PROPOSE => Message::Propose {
                peer: PeerId(r.u32().ok_or(Truncated)?),
                from: ClusterId(r.u32().ok_or(Truncated)?),
                to: ClusterId(r.u32().ok_or(Truncated)?),
                claimed_gain: r.f64().ok_or(Truncated)?,
                commitment: r.u64().ok_or(Truncated)?,
            },
            TAG_HEARTBEAT => Message::Heartbeat {
                peer: PeerId(r.u32().ok_or(Truncated)?),
                from: ClusterId(r.u32().ok_or(Truncated)?),
            },
            TAG_GRANT => Message::Grant {
                src: ClusterId(r.u32().ok_or(Truncated)?),
                dst: ClusterId(r.u32().ok_or(Truncated)?),
                peer: PeerId(r.u32().ok_or(Truncated)?),
                gain: r.f64().ok_or(Truncated)?,
            },
            TAG_DENY => Message::Deny {
                src: ClusterId(r.u32().ok_or(Truncated)?),
                dst: ClusterId(r.u32().ok_or(Truncated)?),
                peer: PeerId(r.u32().ok_or(Truncated)?),
                reason: match r.u8().ok_or(Truncated)? {
                    0 => DenyReason::Locked,
                    1 => DenyReason::SelfMove,
                    d => return Err(DecodeError::BadDiscriminant(d)),
                },
            },
            TAG_COMMIT => Message::Commit {
                peer: PeerId(r.u32().ok_or(Truncated)?),
                from: ClusterId(r.u32().ok_or(Truncated)?),
                to: ClusterId(r.u32().ok_or(Truncated)?),
                claimed_gain: r.f64().ok_or(Truncated)?,
                nonce: r.u64().ok_or(Truncated)?,
            },
            TAG_SUMMARY => Message::SummaryUpdate {
                cluster: ClusterId(r.u32().ok_or(Truncated)?),
                size: r.u32().ok_or(Truncated)?,
            },
            tag => return Err(DecodeError::UnknownTag(tag)),
        };
        if r.done() {
            Ok(msg)
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }

    /// The ledger category this frame is charged to. Reports and their
    /// heartbeat stand-ins are gain reports; relayed proposals are
    /// relocation requests (the caller picks between the two `Propose`
    /// charges by context, see
    /// [`Outbox::send`](super::machine::Outbox::send)).
    pub fn default_kind(&self) -> MsgKind {
        match self {
            Message::Propose { .. } => MsgKind::GainReport,
            Message::Heartbeat { .. } => MsgKind::Heartbeat,
            Message::Grant { .. } | Message::Deny { .. } => MsgKind::GrantCoordination,
            Message::Commit { .. } => MsgKind::ClusterJoin,
            Message::SummaryUpdate { .. } => MsgKind::SummaryUpdate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let bytes = msg.encode();
        let back = Message::decode(&bytes).expect("frame must decode");
        // Bit-level equality, so NaN gains survive too.
        match (msg, back) {
            (
                Message::Propose {
                    claimed_gain: a, ..
                },
                Message::Propose {
                    claimed_gain: b, ..
                },
            ) => assert_eq!(a.to_bits(), b.to_bits()),
            (Message::Grant { gain: a, .. }, Message::Grant { gain: b, .. }) => {
                assert_eq!(a.to_bits(), b.to_bits())
            }
            _ => {}
        }
        assert_eq!(Message::decode(&bytes), Ok(msg));
    }

    #[test]
    fn every_variant_round_trips() {
        roundtrip(Message::Propose {
            peer: PeerId(7),
            from: ClusterId(1),
            to: ClusterId(4),
            claimed_gain: 0.12345,
            commitment: 0xdead_beef_cafe_f00d,
        });
        roundtrip(Message::Heartbeat {
            peer: PeerId(0),
            from: ClusterId(9),
        });
        roundtrip(Message::Grant {
            src: ClusterId(2),
            dst: ClusterId(3),
            peer: PeerId(11),
            gain: -0.5,
        });
        roundtrip(Message::Deny {
            src: ClusterId(2),
            dst: ClusterId(3),
            peer: PeerId(11),
            reason: DenyReason::Locked,
        });
        roundtrip(Message::Deny {
            src: ClusterId(0),
            dst: ClusterId(0),
            peer: PeerId(1),
            reason: DenyReason::SelfMove,
        });
        roundtrip(Message::Commit {
            peer: PeerId(5),
            from: ClusterId(0),
            to: ClusterId(8),
            claimed_gain: f64::MIN_POSITIVE,
            nonce: u64::MAX,
        });
        roundtrip(Message::SummaryUpdate {
            cluster: ClusterId(6),
            size: 42,
        });
    }

    /// `MAX_FRAME_LEN` is exactly the longest frame: `Propose` and
    /// `Commit` fill the inline buffer (every variant fits, or
    /// `every_variant_round_trips` would panic while encoding).
    #[test]
    fn longest_frames_fill_the_inline_buffer() {
        for msg in [
            Message::Propose {
                peer: PeerId(u32::MAX),
                from: ClusterId(1),
                to: ClusterId(2),
                claimed_gain: 1.0,
                commitment: u64::MAX,
            },
            Message::Commit {
                peer: PeerId(3),
                from: ClusterId(1),
                to: ClusterId(2),
                claimed_gain: -1.0,
                nonce: 7,
            },
        ] {
            assert_eq!(msg.frame().as_bytes().len(), MAX_FRAME_LEN);
            assert_eq!(msg.encode(), msg.frame().as_bytes());
        }
    }

    #[test]
    fn gain_bits_survive_including_nan() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let msg = Message::Propose {
            peer: PeerId(1),
            from: ClusterId(0),
            to: ClusterId(2),
            claimed_gain: weird,
            commitment: gain_commitment(PeerId(1), ClusterId(0), ClusterId(2), weird.to_bits(), 9),
        };
        match Message::decode(&msg.encode()).unwrap() {
            Message::Propose { claimed_gain, .. } => {
                assert_eq!(claimed_gain.to_bits(), weird.to_bits())
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn malformed_frames_are_rejected_with_the_right_error() {
        assert_eq!(Message::decode(&[]), Err(DecodeError::Truncated));
        assert_eq!(
            Message::decode(&[99, 0, 0]),
            Err(DecodeError::UnknownTag(99))
        );
        // Truncated propose.
        let mut bytes = Message::Propose {
            peer: PeerId(7),
            from: ClusterId(1),
            to: ClusterId(4),
            claimed_gain: 1.0,
            commitment: 0,
        }
        .encode();
        bytes.pop();
        assert_eq!(Message::decode(&bytes), Err(DecodeError::Truncated));
        // Trailing garbage.
        let mut bytes = Message::Heartbeat {
            peer: PeerId(0),
            from: ClusterId(0),
        }
        .encode();
        bytes.push(0);
        assert_eq!(Message::decode(&bytes), Err(DecodeError::TrailingBytes));
        // Bad deny discriminant.
        let mut bytes = Message::Deny {
            src: ClusterId(0),
            dst: ClusterId(1),
            peer: PeerId(2),
            reason: DenyReason::Locked,
        }
        .encode();
        *bytes.last_mut().unwrap() = 7;
        assert_eq!(
            Message::decode(&bytes),
            Err(DecodeError::BadDiscriminant(7))
        );
    }

    #[test]
    fn commitment_binds_every_field() {
        let base = gain_commitment(PeerId(3), ClusterId(1), ClusterId(2), 0.5f64.to_bits(), 42);
        assert_eq!(
            base,
            gain_commitment(PeerId(3), ClusterId(1), ClusterId(2), 0.5f64.to_bits(), 42)
        );
        for other in [
            gain_commitment(PeerId(4), ClusterId(1), ClusterId(2), 0.5f64.to_bits(), 42),
            gain_commitment(PeerId(3), ClusterId(0), ClusterId(2), 0.5f64.to_bits(), 42),
            gain_commitment(PeerId(3), ClusterId(1), ClusterId(3), 0.5f64.to_bits(), 42),
            gain_commitment(PeerId(3), ClusterId(1), ClusterId(2), 0.6f64.to_bits(), 42),
            gain_commitment(PeerId(3), ClusterId(1), ClusterId(2), 0.5f64.to_bits(), 43),
        ] {
            assert_ne!(base, other);
        }
    }
}
