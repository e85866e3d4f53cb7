//! Request/reply framing and control-segment encoding.
//!
//! Each request carries (§4): an opcode, `start_sign` and `end_sign`
//! operands delimiting the record, the client id, the *sealed control
//! segment* (AES-128-GCM under `K_session`, authenticated together with the
//! opcode and client id as AAD), the payload CMAC, and the encrypted
//! payload. Only the control segment ever enters the enclave.
//!
//! GCM nonces are derived from the per-direction sequence numbers (`oid`
//! client→server, `reply_seq` server→client) with distinct direction tags,
//! so no (key, nonce) pair ever repeats within a session.

use precursor_crypto::gcm::GcmKey;
use precursor_crypto::keys::{Key256, Nonce12, Nonce8, Tag};

use crate::error::StoreError;

/// Start-of-record operand (§4).
pub const START_SIGN: u16 = 0x5A5A;
/// End-of-record operand (§4).
pub const END_SIGN: u16 = 0xA5A5;

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Insert or update a key (Algorithm 1/2).
    Put = 1,
    /// Query a key.
    Get = 2,
    /// Remove a key.
    Delete = 3,
}

impl Opcode {
    fn from_u8(v: u8) -> Option<Opcode> {
        match v {
            1 => Some(Opcode::Put),
            2 => Some(Opcode::Get),
            3 => Some(Opcode::Delete),
            _ => None,
        }
    }
}

/// Reply status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Success.
    Ok = 0,
    /// Key absent.
    NotFound = 1,
    /// Sequence-number check failed (Algorithm 2, line 5).
    Replay = 2,
    /// Other failure (malformed control, oversized item, …).
    Error = 3,
    /// The server is shedding load for this client (per-client memory quota
    /// or backpressure); retry after the control segment's `retry_after_ns`.
    Busy = 4,
    /// The key is not owned by this node: the request hit a stale location
    /// cache. The sealed control segment carries the authoritative owner
    /// hint in `retry_after_ns` (routing epoch in the high bits, owner node
    /// in the low 16); the hint is folded into the reply MAC chain, so a
    /// malicious host cannot forge a redirect to misroute clients.
    NotMine = 5,
}

impl Status {
    pub(crate) fn from_u8(v: u8) -> Option<Status> {
        match v {
            0 => Some(Status::Ok),
            1 => Some(Status::NotFound),
            2 => Some(Status::Replay),
            3 => Some(Status::Error),
            4 => Some(Status::Busy),
            5 => Some(Status::NotMine),
            _ => None,
        }
    }
}

/// GCM nonce for a client→server control segment.
pub fn request_nonce(oid: u64) -> Nonce12 {
    let mut b = [0u8; 12];
    b[0] = 0x01;
    b[4..].copy_from_slice(&oid.to_be_bytes());
    Nonce12::from_bytes(b)
}

/// GCM nonce for a server→client control segment.
pub fn reply_nonce(reply_seq: u64) -> Nonce12 {
    let mut b = [0u8; 12];
    b[0] = 0x02;
    b[4..].copy_from_slice(&reply_seq.to_be_bytes());
    Nonce12::from_bytes(b)
}

/// AAD binding a request's sealed control to its clear header.
pub fn request_aad(opcode: Opcode, client_id: u32) -> [u8; 5] {
    let mut aad = [0u8; 5];
    aad[0] = opcode as u8;
    aad[1..].copy_from_slice(&client_id.to_le_bytes());
    aad
}

/// A parsed request frame (clear parts + opaque sealed control).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestFrame {
    /// Operation requested.
    pub opcode: Opcode,
    /// Issuing client.
    pub client_id: u32,
    /// Fresh GCM IV for the control segment; travels in the clear as the
    /// paper notes ("a newly generated initialization vector is necessary",
    /// §3.7), since the server needs it before it can decrypt the control.
    pub iv: Nonce12,
    /// AES-GCM-sealed control segment (opaque outside the enclave).
    pub sealed_control: Vec<u8>,
    /// CMAC over the encrypted payload (zeroes for control-only requests).
    pub mac: Tag,
    /// Encrypted payload (empty for control-only requests).
    pub payload: Vec<u8>,
}

/// A request frame over borrowed bytes — the one request codec:
/// [`RequestFrame`]'s `encode`/`decode` go through it. The sender encodes
/// from the buffers it already holds and the server parses a popped record
/// in place, neither copying the sealed control or the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRef<'a> {
    /// Operation requested.
    pub opcode: Opcode,
    /// Issuing client.
    pub client_id: u32,
    /// GCM IV of the control segment.
    pub iv: Nonce12,
    /// AES-GCM-sealed control segment.
    pub sealed_control: &'a [u8],
    /// CMAC over the encrypted payload.
    pub mac: Tag,
    /// Encrypted payload.
    pub payload: &'a [u8],
}

/// Bytes of a request frame besides its sealed control and its payload:
/// opcode, the two signs, client id, IV, MAC and the two lengths.
const REQUEST_FRAME_OVERHEAD: usize = 1 + 2 + 4 + 12 + 2 + 16 + 4 + 2;

// Appends one request frame to `out`, the `sealed_len` bytes of its sealed
// control appended by `control`: the one writer of the request layout.
fn append_request(
    out: &mut Vec<u8>,
    (opcode, client_id, iv): (Opcode, u32, &Nonce12),
    sealed_len: usize,
    control: impl FnOnce(&mut Vec<u8>),
    mac: &Tag,
    payload: &[u8],
) {
    out.push(opcode as u8);
    out.extend_from_slice(&START_SIGN.to_le_bytes());
    out.extend_from_slice(&client_id.to_le_bytes());
    out.extend_from_slice(iv.as_bytes());
    out.extend_from_slice(&(sealed_len as u16).to_le_bytes());
    control(out);
    out.extend_from_slice(mac.as_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&END_SIGN.to_le_bytes());
}

impl<'a> RequestRef<'a> {
    /// Replaces the contents of `out` with the frame's ring-record bytes.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        let sealed_len = self.sealed_control.len();
        out.reserve(REQUEST_FRAME_OVERHEAD + sealed_len + self.payload.len());
        append_request(
            out,
            (self.opcode, self.client_id, &self.iv),
            sealed_len,
            |out| out.extend_from_slice(self.sealed_control),
            &self.mac,
            self.payload,
        );
    }

    /// Parses a frame, validating signs, opcode and lengths.
    ///
    /// # Errors
    ///
    /// [`StoreError::MalformedFrame`] on any structural violation.
    pub fn parse(buf: &'a [u8]) -> Result<RequestRef<'a>, StoreError> {
        let mut r = Reader::new(buf);
        let opcode = Opcode::from_u8(r.u8()?).ok_or(StoreError::MalformedFrame)?;
        if r.u16()? != START_SIGN {
            return Err(StoreError::MalformedFrame);
        }
        let client_id = r.u32()?;
        let iv = Nonce12::try_from(r.bytes(12)?).map_err(|_| StoreError::MalformedFrame)?;
        let control_len = r.u16()? as usize;
        let sealed_control = r.bytes(control_len)?;
        let mac = Tag::try_from(r.bytes(16)?).map_err(|_| StoreError::MalformedFrame)?;
        let payload_len = r.u32()? as usize;
        let payload = r.bytes(payload_len)?;
        if r.u16()? != END_SIGN || !r.is_empty() {
            return Err(StoreError::MalformedFrame);
        }
        Ok(RequestRef {
            opcode,
            client_id,
            iv,
            sealed_control,
            mac,
            payload,
        })
    }
}

/// A request as its sender builds it: the control in plaintext, to be
/// sealed under `K_session` where it lies in the frame. A client appends
/// the frame straight into the ring WRITE it keeps for retransmission, so
/// no control, sealed-control or frame buffer stands beside that one. The
/// bytes are [`RequestRef::encode_into`]'s for the same control sealed
/// apart, under the IV [`request_nonce`] derives from its `oid` and the
/// AAD [`request_aad`] binds.
#[derive(Debug, Clone)]
pub struct RequestToSeal<'a> {
    /// Operation requested.
    pub opcode: Opcode,
    /// Issuing client.
    pub client_id: u32,
    /// The control plaintext.
    pub control: RequestControlRef<'a>,
    /// CMAC over the encrypted payload.
    pub mac: Tag,
    /// Encrypted payload.
    pub payload: &'a [u8],
}

impl RequestToSeal<'_> {
    /// Bytes of the control plaintext.
    pub fn control_len(&self) -> usize {
        self.control.encoded_len()
    }

    /// Bytes of the framed request.
    pub fn frame_len(&self) -> usize {
        REQUEST_FRAME_OVERHEAD + self.control_len() + Tag::LEN + self.payload.len()
    }

    /// Appends the frame's [`frame_len`](Self::frame_len) bytes to `out`,
    /// sealing the control in place under `key`.
    pub fn append_sealed(&self, key: &GcmKey, out: &mut Vec<u8>) {
        let iv = request_nonce(self.control.oid);
        let aad = request_aad(self.opcode, self.client_id);
        let seal = |out: &mut Vec<u8>| {
            let at = out.len();
            self.control.append_to(out);
            let tag = key.seal_in_place_detached(&iv, &aad, &mut out[at..]);
            out.extend_from_slice(tag.as_bytes());
        };
        let header = (self.opcode, self.client_id, &iv);
        let sealed_len = self.control_len() + Tag::LEN;
        append_request(out, header, sealed_len, seal, &self.mac, self.payload);
    }
}

impl RequestFrame {
    /// Serializes the frame into ring-record bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        RequestRef {
            opcode: self.opcode,
            client_id: self.client_id,
            iv: self.iv,
            sealed_control: &self.sealed_control,
            mac: self.mac,
            payload: &self.payload,
        }
        .encode_into(&mut out);
        out
    }

    /// Parses a frame, validating signs, opcode and lengths.
    ///
    /// # Errors
    ///
    /// [`StoreError::MalformedFrame`] on any structural violation.
    pub fn decode(buf: &[u8]) -> Result<RequestFrame, StoreError> {
        let r = RequestRef::parse(buf)?;
        Ok(RequestFrame {
            opcode: r.opcode,
            client_id: r.client_id,
            iv: r.iv,
            sealed_control: r.sealed_control.to_vec(),
            mac: r.mac,
            payload: r.payload.to_vec(),
        })
    }
}

/// GCM nonce for a transport-encrypted *payload* in server-encryption mode
/// (distinct direction tag so it can never collide with control nonces).
pub fn payload_request_nonce(oid: u64) -> Nonce12 {
    let mut b = [0u8; 12];
    b[0] = 0x03;
    b[4..].copy_from_slice(&oid.to_be_bytes());
    Nonce12::from_bytes(b)
}

/// GCM nonce for a transport-encrypted payload in a server-encryption-mode
/// *reply*.
pub fn payload_reply_nonce(reply_seq: u64) -> Nonce12 {
    let mut b = [0u8; 12];
    b[0] = 0x04;
    b[4..].copy_from_slice(&reply_seq.to_be_bytes());
    Nonce12::from_bytes(b)
}

/// A parsed reply frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyFrame {
    /// Outcome of the operation.
    pub status: Status,
    /// Echo of the request opcode.
    pub opcode: Opcode,
    /// Server→client sequence number (selects the reply GCM nonce).
    pub reply_seq: u64,
    /// AES-GCM-sealed control reply.
    pub sealed_control: Vec<u8>,
    /// Stored encrypted payload, sent as-is from untrusted memory (get only).
    pub payload: Vec<u8>,
}

/// A reply frame over borrowed bytes — the one reply codec, as
/// [`RequestRef`] is for requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyRef<'a> {
    /// Outcome of the operation.
    pub status: Status,
    /// Echo of the request opcode.
    pub opcode: Opcode,
    /// Server→client sequence number.
    pub reply_seq: u64,
    /// AES-GCM-sealed control reply.
    pub sealed_control: &'a [u8],
    /// Stored encrypted payload.
    pub payload: &'a [u8],
}

/// Where a reply's sealed control starts in its record: after the status,
/// the opcode, `reply_seq` and the control's length.
const REPLY_CONTROL_AT: usize = 1 + 1 + 8 + 2;

impl<'a> ReplyRef<'a> {
    /// Replaces the contents of `out` with the reply's ring-record bytes.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(16 + self.sealed_control.len() + self.payload.len());
        out.push(self.status as u8);
        out.push(self.opcode as u8);
        out.extend_from_slice(&self.reply_seq.to_le_bytes());
        out.extend_from_slice(&(self.sealed_control.len() as u16).to_le_bytes());
        out.extend_from_slice(self.sealed_control);
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(self.payload);
    }

    /// Parses a reply frame.
    ///
    /// # Errors
    ///
    /// [`StoreError::MalformedFrame`] on any structural violation.
    pub fn parse(buf: &'a [u8]) -> Result<ReplyRef<'a>, StoreError> {
        let mut r = Reader::new(buf);
        let status = Status::from_u8(r.u8()?).ok_or(StoreError::MalformedFrame)?;
        let opcode = Opcode::from_u8(r.u8()?).ok_or(StoreError::MalformedFrame)?;
        let reply_seq = r.u64()?;
        let control_len = r.u16()? as usize;
        let sealed_control = r.bytes(control_len)?;
        let payload_len = r.u32()? as usize;
        let payload = r.bytes(payload_len)?;
        if !r.is_empty() {
            return Err(StoreError::MalformedFrame);
        }
        Ok(ReplyRef {
            status,
            opcode,
            reply_seq,
            sealed_control,
            payload,
        })
    }
}

/// A reply frame over bytes its receiver owns: [`ReplyRef`]'s fields, with
/// the sealed control open to change, so the receiver opens it where it
/// lies in the popped record.
#[derive(Debug, PartialEq, Eq)]
pub struct ReplyMut<'a> {
    /// Outcome of the operation.
    pub status: Status,
    /// Echo of the request opcode.
    pub opcode: Opcode,
    /// Server→client sequence number.
    pub reply_seq: u64,
    /// AES-GCM-sealed control reply.
    pub sealed_control: &'a mut [u8],
    /// Stored encrypted payload.
    pub payload: &'a [u8],
}

impl<'a> ReplyMut<'a> {
    /// Parses a reply frame as [`ReplyRef::parse`] does.
    ///
    /// # Errors
    ///
    /// [`StoreError::MalformedFrame`] on any structural violation.
    pub fn parse(buf: &'a mut [u8]) -> Result<ReplyMut<'a>, StoreError> {
        let ReplyRef {
            status,
            opcode,
            reply_seq,
            sealed_control,
            ..
        } = ReplyRef::parse(buf)?;
        let control_end = REPLY_CONTROL_AT + sealed_control.len();
        let (head, tail) = buf.split_at_mut(control_end);
        Ok(ReplyMut {
            status,
            opcode,
            reply_seq,
            sealed_control: &mut head[REPLY_CONTROL_AT..],
            // After the payload's 4-byte length.
            payload: &tail[4..],
        })
    }
}

impl ReplyFrame {
    /// Serializes the reply into ring-record bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        ReplyRef {
            status: self.status,
            opcode: self.opcode,
            reply_seq: self.reply_seq,
            sealed_control: &self.sealed_control,
            payload: &self.payload,
        }
        .encode_into(&mut out);
        out
    }

    /// Parses a reply frame.
    ///
    /// # Errors
    ///
    /// [`StoreError::MalformedFrame`] on any structural violation.
    pub fn decode(buf: &[u8]) -> Result<ReplyFrame, StoreError> {
        let r = ReplyRef::parse(buf)?;
        Ok(ReplyFrame {
            status: r.status,
            opcode: r.opcode,
            reply_seq: r.reply_seq,
            sealed_control: r.sealed_control.to_vec(),
            payload: r.payload.to_vec(),
        })
    }
}

/// Plaintext of a request control segment (decrypted only in the enclave).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestControl {
    /// Per-client operation sequence number.
    pub oid: u64,
    /// The key item.
    pub key: Vec<u8>,
    /// One-time payload key (put in client-encryption mode only).
    pub k_op: Option<Key256>,
    /// Salsa20 nonce for the payload (put in client-encryption mode only).
    pub payload_nonce: Option<Nonce8>,
}

/// A request control plaintext over borrowed bytes — the one control
/// codec: [`RequestControl`]'s `encode`/`decode` go through it. A client
/// encodes from the key it was handed and the enclave parses the plaintext
/// it decrypted in place, neither copying the key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestControlRef<'a> {
    /// Per-client operation sequence number.
    pub oid: u64,
    /// The key item.
    pub key: &'a [u8],
    /// One-time payload key (put in client-encryption mode only).
    pub k_op: Option<Key256>,
    /// Salsa20 nonce for the payload (put in client-encryption mode only).
    pub payload_nonce: Option<Nonce8>,
}

impl<'a> RequestControlRef<'a> {
    /// Replaces the contents of `out` with the control plaintext.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.encoded_len());
        self.append_to(out);
    }

    /// Bytes of the control plaintext.
    pub fn encoded_len(&self) -> usize {
        let with_key_material = self.k_op.is_some() && self.payload_nonce.is_some();
        RequestControl::encoded_len(self.key.len(), with_key_material)
    }

    /// Appends the control plaintext to `out`.
    pub fn append_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.oid.to_le_bytes());
        out.extend_from_slice(&(self.key.len() as u16).to_le_bytes());
        out.extend_from_slice(self.key);
        match (&self.k_op, &self.payload_nonce) {
            (Some(k), Some(n)) => {
                out.push(1);
                out.extend_from_slice(k.as_bytes());
                out.extend_from_slice(n.as_bytes());
            }
            _ => out.push(0),
        }
    }

    /// Parses a control plaintext.
    ///
    /// # Errors
    ///
    /// [`StoreError::MalformedFrame`] on any structural violation.
    pub fn parse(buf: &'a [u8]) -> Result<RequestControlRef<'a>, StoreError> {
        let mut r = Reader::new(buf);
        let oid = r.u64()?;
        let key_len = r.u16()? as usize;
        let key = r.bytes(key_len)?;
        let (k_op, payload_nonce) = match r.u8()? {
            0 => (None, None),
            1 => {
                let k = Key256::try_from(r.bytes(32)?).map_err(|_| StoreError::MalformedFrame)?;
                let n = Nonce8::try_from(r.bytes(8)?).map_err(|_| StoreError::MalformedFrame)?;
                (Some(k), Some(n))
            }
            _ => return Err(StoreError::MalformedFrame),
        };
        if !r.is_empty() {
            return Err(StoreError::MalformedFrame);
        }
        Ok(RequestControlRef {
            oid,
            key,
            k_op,
            payload_nonce,
        })
    }
}

impl RequestControl {
    /// The control over its own bytes.
    pub fn as_ref(&self) -> RequestControlRef<'_> {
        RequestControlRef {
            oid: self.oid,
            key: &self.key,
            k_op: self.k_op.clone(),
            payload_nonce: self.payload_nonce,
        }
    }

    /// Serializes the control plaintext.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Replaces the contents of `out` with the control plaintext.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.as_ref().encode_into(out);
    }

    /// Parses a control plaintext.
    ///
    /// # Errors
    ///
    /// [`StoreError::MalformedFrame`] on any structural violation.
    pub fn decode(buf: &[u8]) -> Result<RequestControl, StoreError> {
        let control = RequestControlRef::parse(buf)?;
        Ok(RequestControl {
            oid: control.oid,
            key: control.key.to_vec(),
            k_op: control.k_op,
            payload_nonce: control.payload_nonce,
        })
    }

    /// Wire size of a control segment for a key of `key_len` bytes carrying
    /// a one-time key — the paper's "≈56 B" control-data estimate (§5.2).
    pub fn encoded_len(key_len: usize, with_key_material: bool) -> usize {
        8 + 2 + key_len + 1 + if with_key_material { 40 } else { 0 }
    }
}

/// Plaintext of a reply control segment.
///
/// Beyond the paper's fields (the `oid` echo and the key material of a
/// returned value), the control carries the Byzantine-detection state the
/// client verifies on every reply: the session's connection *epoch*, the
/// server's store-mutation sequence number and digest (rollback / fork
/// evidence), the reply MAC-chain tag, and a retry hint for
/// [`Status::Busy`] backpressure replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyControl {
    /// Echo of the request `oid` (lets the client match and order replies).
    pub oid: u64,
    /// One-time key of the returned value (get replies).
    pub k_op: Option<Key256>,
    /// Salsa20 nonce of the returned value (get replies).
    pub payload_nonce: Option<Nonce8>,
    /// Stored CMAC of the returned encrypted value (get replies).
    pub mac: Option<Tag>,
    /// Connection epoch of the issuing session (bumped on every reconnect).
    pub epoch: u32,
    /// Server-global store mutation sequence number at reply time. A client
    /// that ever sees this regress is talking to a rolled-back server.
    pub store_seq: u64,
    /// Running digest over all applied mutations up to `store_seq`. Two
    /// clients comparing equal `store_seq` with different digests have been
    /// shown *forked* views.
    pub store_digest: [u8; 16],
    /// Reply MAC-chain tag over this reply's canonical bytes (see
    /// [`chain_input`]); links the reply to every reply before it.
    pub chain: Tag,
    /// Suggested client back-off before retrying, in simulated nanoseconds
    /// (meaningful for [`Status::Busy`] replies; zero otherwise).
    pub retry_after_ns: u64,
}

impl ReplyControl {
    /// A control segment carrying only the `oid` echo; the server fills the
    /// epoch/chain/store fields when finalizing the reply.
    pub fn basic(oid: u64) -> ReplyControl {
        ReplyControl {
            oid,
            k_op: None,
            payload_nonce: None,
            mac: None,
            epoch: 0,
            store_seq: 0,
            store_digest: [0u8; 16],
            chain: Tag::default(),
            retry_after_ns: 0,
        }
    }

    /// Serializes the reply control plaintext.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Replaces the contents of `out` with the reply control plaintext.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(9 + 56 + 52);
        out.extend_from_slice(&self.oid.to_le_bytes());
        match (&self.k_op, &self.payload_nonce, &self.mac) {
            (Some(k), Some(n), Some(m)) => {
                out.push(1);
                out.extend_from_slice(k.as_bytes());
                out.extend_from_slice(n.as_bytes());
                out.extend_from_slice(m.as_bytes());
            }
            _ => out.push(0),
        }
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.store_seq.to_le_bytes());
        out.extend_from_slice(&self.store_digest);
        out.extend_from_slice(self.chain.as_bytes());
        out.extend_from_slice(&self.retry_after_ns.to_le_bytes());
    }

    /// Parses a reply control plaintext.
    ///
    /// # Errors
    ///
    /// [`StoreError::MalformedFrame`] on any structural violation.
    pub fn decode(buf: &[u8]) -> Result<ReplyControl, StoreError> {
        let mut r = Reader::new(buf);
        let oid = r.u64()?;
        let (k_op, payload_nonce, mac) = match r.u8()? {
            0 => (None, None, None),
            1 => {
                let k = Key256::try_from(r.bytes(32)?).map_err(|_| StoreError::MalformedFrame)?;
                let n = Nonce8::try_from(r.bytes(8)?).map_err(|_| StoreError::MalformedFrame)?;
                let m = Tag::try_from(r.bytes(16)?).map_err(|_| StoreError::MalformedFrame)?;
                (Some(k), Some(n), Some(m))
            }
            _ => return Err(StoreError::MalformedFrame),
        };
        let epoch = r.u32()?;
        let store_seq = r.u64()?;
        let store_digest: [u8; 16] = r
            .bytes(16)?
            .try_into()
            .map_err(|_| StoreError::MalformedFrame)?;
        let chain = Tag::try_from(r.bytes(16)?).map_err(|_| StoreError::MalformedFrame)?;
        let retry_after_ns = r.u64()?;
        if !r.is_empty() {
            return Err(StoreError::MalformedFrame);
        }
        Ok(ReplyControl {
            oid,
            k_op,
            payload_nonce,
            mac,
            epoch,
            store_seq,
            store_digest,
            chain,
            retry_after_ns,
        })
    }
}

/// Context string both endpoints seed the reply MAC chain with: binds the
/// session identity (client id) and the connection epoch, so chains from
/// different sessions or epochs start from unrelated states.
pub fn chain_context(client_id: u32, epoch: u32) -> Vec<u8> {
    let mut out = b"precursor-reply-chain:".to_vec();
    out.extend_from_slice(&client_id.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out
}

/// Length of [`chain_input`]'s canonical bytes.
pub const CHAIN_INPUT_LEN: usize = 2 + 8 + 8 + 4 + 8 + 16 + 8;

/// Canonical byte string a reply's MAC-chain tag is computed over: the
/// clear reply header (status, opcode, `reply_seq`) plus every
/// Byzantine-relevant control field *except* the chain tag itself. Both the
/// enclave and the client build this identically; any divergence breaks the
/// chain.
pub fn chain_input(
    status: Status,
    opcode: Opcode,
    reply_seq: u64,
    control: &ReplyControl,
) -> [u8; CHAIN_INPUT_LEN] {
    let mut out = [0u8; CHAIN_INPUT_LEN];
    out[0] = status as u8;
    out[1] = opcode as u8;
    out[2..10].copy_from_slice(&reply_seq.to_le_bytes());
    out[10..18].copy_from_slice(&control.oid.to_le_bytes());
    out[18..22].copy_from_slice(&control.epoch.to_le_bytes());
    out[22..30].copy_from_slice(&control.store_seq.to_le_bytes());
    out[30..46].copy_from_slice(&control.store_digest);
    out[46..54].copy_from_slice(&control.retry_after_ns.to_le_bytes());
    out
}

/// The trusted polling shard owning `key` when the server runs with
/// `shards` shards ([`Config::shards`](crate::Config)): the stable key hash
/// reduced by the high bits. Every layer — server routing, the bench
/// driver's poller pinning, and the test oracles — derives the same answer
/// from the key bytes alone.
pub fn shard_of_key(key: &[u8], shards: usize) -> usize {
    // `[u8]` and `Vec<u8>` hash identically, so this matches the sharded
    // table's own routing of its `Vec<u8>` keys.
    precursor_storage::robinhood::shard_of_hash(
        precursor_storage::robinhood::stable_key_hash(key),
        shards,
    )
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.pos + n > self.buf.len() {
            return Err(StoreError::MalformedFrame);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(
            self.bytes(2)?.try_into().expect("len 2"),
        ))
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("len 4"),
        ))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("len 8"),
        ))
    }

    fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> RequestFrame {
        RequestFrame {
            opcode: Opcode::Put,
            client_id: 7,
            iv: Nonce12::from_bytes([8; 12]),
            sealed_control: vec![1, 2, 3, 4, 5],
            mac: Tag::from_bytes([9; 16]),
            payload: vec![0xAA; 37],
        }
    }

    #[test]
    fn request_roundtrip() {
        let f = sample_request();
        assert_eq!(RequestFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn request_roundtrip_empty_payload() {
        let f = RequestFrame {
            opcode: Opcode::Get,
            client_id: 0,
            iv: Nonce12::from_bytes([0; 12]),
            sealed_control: vec![],
            mac: Tag::default(),
            payload: vec![],
        };
        assert_eq!(RequestFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn request_rejects_bad_signs_opcode_and_trailing() {
        let f = sample_request();
        let good = f.encode();

        let mut bad_op = good.clone();
        bad_op[0] = 99;
        assert_eq!(
            RequestFrame::decode(&bad_op),
            Err(StoreError::MalformedFrame)
        );

        let mut bad_start = good.clone();
        bad_start[1] ^= 0xFF;
        assert_eq!(
            RequestFrame::decode(&bad_start),
            Err(StoreError::MalformedFrame)
        );

        let mut bad_end = good.clone();
        let n = bad_end.len();
        bad_end[n - 1] ^= 0xFF;
        assert_eq!(
            RequestFrame::decode(&bad_end),
            Err(StoreError::MalformedFrame)
        );

        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(
            RequestFrame::decode(&trailing),
            Err(StoreError::MalformedFrame)
        );

        assert_eq!(
            RequestFrame::decode(&good[..10]),
            Err(StoreError::MalformedFrame)
        );
    }

    #[test]
    fn reply_roundtrip() {
        let f = ReplyFrame {
            status: Status::Ok,
            opcode: Opcode::Get,
            reply_seq: 12345,
            sealed_control: vec![7; 60],
            payload: vec![1; 100],
        };
        assert_eq!(ReplyFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn a_request_sealed_in_place_is_the_frame_sealed_apart() {
        let key = GcmKey::new(&precursor_crypto::keys::Key128::from_bytes([5; 16]));
        let with_material = RequestControlRef {
            oid: 41,
            key: b"user-key",
            k_op: Some(Key256::from_bytes([3; 32])),
            payload_nonce: Some(Nonce8::from_bytes([4; 8])),
        };
        let control_only = RequestControlRef {
            oid: 42,
            key: b"k",
            k_op: None,
            payload_nonce: None,
        };
        for (control, payload) in [(with_material, &[0xAA; 37][..]), (control_only, &[][..])] {
            let request = RequestToSeal {
                opcode: Opcode::Put,
                client_id: 7,
                control: control.clone(),
                mac: Tag::from_bytes([9; 16]),
                payload,
            };
            let mut plain = Vec::new();
            control.encode_into(&mut plain);
            assert_eq!(request.control_len(), plain.len());
            let iv = request_nonce(control.oid);
            let sealed = key.seal(&iv, &request_aad(Opcode::Put, 7), &plain);
            let mut apart = Vec::new();
            RequestRef {
                opcode: Opcode::Put,
                client_id: 7,
                iv,
                sealed_control: &sealed,
                mac: request.mac,
                payload,
            }
            .encode_into(&mut apart);
            // Appended after bytes already there, as into a ring WRITE.
            let mut in_place = vec![0xEE; 3];
            request.append_sealed(&key, &mut in_place);
            assert_eq!(in_place[3..], apart[..]);
            assert_eq!(request.frame_len(), apart.len());
        }
    }

    #[test]
    fn a_reply_parsed_in_place_has_the_borrowed_parse_fields() {
        let f = ReplyFrame {
            status: Status::NotFound,
            opcode: Opcode::Get,
            reply_seq: 99,
            sealed_control: vec![7; 60],
            payload: vec![1; 13],
        };
        let mut bytes = f.encode();
        let r = ReplyMut::parse(&mut bytes).unwrap();
        assert_eq!((r.status, r.opcode, r.reply_seq), (f.status, f.opcode, 99));
        assert_eq!(
            (&*r.sealed_control, r.payload),
            (&f.sealed_control[..], &f.payload[..])
        );
        bytes.push(0);
        assert_eq!(ReplyMut::parse(&mut bytes), Err(StoreError::MalformedFrame));
    }

    #[test]
    fn reply_rejects_bad_status() {
        let f = ReplyFrame {
            status: Status::NotFound,
            opcode: Opcode::Get,
            reply_seq: 1,
            sealed_control: vec![],
            payload: vec![],
        };
        let mut bytes = f.encode();
        bytes[0] = 42;
        assert_eq!(ReplyFrame::decode(&bytes), Err(StoreError::MalformedFrame));
    }

    #[test]
    fn request_control_roundtrip_with_and_without_key_material() {
        let with = RequestControl {
            oid: 55,
            key: b"user-key".to_vec(),
            k_op: Some(Key256::from_bytes([3; 32])),
            payload_nonce: Some(Nonce8::from_bytes([4; 8])),
        };
        assert_eq!(RequestControl::decode(&with.encode()).unwrap(), with);

        let without = RequestControl {
            oid: 56,
            key: b"k".to_vec(),
            k_op: None,
            payload_nonce: None,
        };
        assert_eq!(RequestControl::decode(&without.encode()).unwrap(), without);
    }

    #[test]
    fn reply_control_roundtrip() {
        let c = ReplyControl {
            k_op: Some(Key256::from_bytes([1; 32])),
            payload_nonce: Some(Nonce8::from_bytes([2; 8])),
            mac: Some(Tag::from_bytes([3; 16])),
            epoch: 4,
            store_seq: 77,
            store_digest: [5; 16],
            chain: Tag::from_bytes([6; 16]),
            retry_after_ns: 123,
            ..ReplyControl::basic(9)
        };
        assert_eq!(ReplyControl::decode(&c.encode()).unwrap(), c);
        let minimal = ReplyControl::basic(10);
        assert_eq!(ReplyControl::decode(&minimal.encode()).unwrap(), minimal);
    }

    #[test]
    fn chain_input_binds_every_byzantine_field() {
        let base = ReplyControl {
            epoch: 1,
            store_seq: 2,
            store_digest: [3; 16],
            retry_after_ns: 4,
            ..ReplyControl::basic(9)
        };
        let reference = chain_input(Status::Ok, Opcode::Get, 5, &base);
        // every relevant mutation changes the canonical bytes
        assert_ne!(chain_input(Status::Error, Opcode::Get, 5, &base), reference);
        assert_ne!(chain_input(Status::Ok, Opcode::Put, 5, &base), reference);
        assert_ne!(chain_input(Status::Ok, Opcode::Get, 6, &base), reference);
        let mut m = base.clone();
        m.oid = 10;
        assert_ne!(chain_input(Status::Ok, Opcode::Get, 5, &m), reference);
        let mut m = base.clone();
        m.epoch = 2;
        assert_ne!(chain_input(Status::Ok, Opcode::Get, 5, &m), reference);
        let mut m = base.clone();
        m.store_seq = 3;
        assert_ne!(chain_input(Status::Ok, Opcode::Get, 5, &m), reference);
        let mut m = base.clone();
        m.store_digest[0] ^= 1;
        assert_ne!(chain_input(Status::Ok, Opcode::Get, 5, &m), reference);
        let mut m = base.clone();
        m.retry_after_ns = 5;
        assert_ne!(chain_input(Status::Ok, Opcode::Get, 5, &m), reference);
        // ... while the chain tag itself is deliberately excluded
        let mut m = base.clone();
        m.chain = Tag::from_bytes([0xFF; 16]);
        assert_eq!(chain_input(Status::Ok, Opcode::Get, 5, &m), reference);
    }

    #[test]
    fn busy_status_roundtrips() {
        assert_eq!(Status::from_u8(Status::Busy as u8), Some(Status::Busy));
        let f = ReplyFrame {
            status: Status::Busy,
            opcode: Opcode::Put,
            reply_seq: 3,
            sealed_control: vec![],
            payload: vec![],
        };
        assert_eq!(
            ReplyFrame::decode(&f.encode()).unwrap().status,
            Status::Busy
        );
    }

    #[test]
    fn control_size_matches_paper_estimate() {
        // 16-byte keys with key material: 8 + 2 + 16 + 1 + 40 = 67 bytes of
        // plaintext — the paper's "≈56 B" order of magnitude.
        assert_eq!(RequestControl::encoded_len(16, true), 67);
        let c = RequestControl {
            oid: 1,
            key: vec![0; 16],
            k_op: Some(Key256::from_bytes([0; 32])),
            payload_nonce: Some(Nonce8::from_bytes([0; 8])),
        };
        assert_eq!(c.encode().len(), 67);
    }

    #[test]
    fn nonces_never_collide_across_directions() {
        for i in 0..1000u64 {
            assert_ne!(request_nonce(i), reply_nonce(i));
            if i > 0 {
                assert_ne!(request_nonce(i), request_nonce(i - 1));
                assert_ne!(reply_nonce(i), reply_nonce(i - 1));
            }
        }
    }

    #[test]
    fn aad_binds_opcode_and_client() {
        assert_ne!(request_aad(Opcode::Put, 1), request_aad(Opcode::Get, 1));
        assert_ne!(request_aad(Opcode::Put, 1), request_aad(Opcode::Put, 2));
    }

    #[test]
    fn shard_of_key_matches_sharded_table_routing() {
        let table: precursor_storage::ShardedRobinHoodMap<Vec<u8>, ()> =
            precursor_storage::ShardedRobinHoodMap::with_capacity(4, 64);
        for i in 0..256u32 {
            let key = format!("user{i}").into_bytes();
            assert_eq!(shard_of_key(&key, 4), table.shard_of(&key));
            assert_eq!(shard_of_key(&key, 1), 0);
        }
    }
}
