(** Little-endian binary encoding helpers for on-disk structures.

    Every persistent structure (superblock, checkpoint, inode, segment
    summary, directory) round-trips through these, so a PFS image written
    by one process mounts in another. A writer stores fields into a
    growable byte buffer and finishes as whole zero-padded blocks; a
    reader walks a string with bounds checking and raises {!Corrupt} on
    malformed input rather than crashing. *)

exception Corrupt of string

module Writer : sig
  type t

  (** A fresh, empty writer whose buffer holds [capacity] bytes before
      it first grows. A structure that fills one block starts at the
      block size, so {!blocks} hands that buffer over without a copy. *)
  val create : capacity:int -> t

  (** One byte: the low 8 bits of the int (any int is accepted). *)
  val u8 : t -> int -> unit

  (** Four bytes, little-endian: the low 32 bits of the int (any int is
      accepted; {!Reader.u32} reads them back as [v land 0xffff_ffff]). *)
  val u32 : t -> int -> unit

  (** 63-bit OCaml ints, stored as 8 bytes whose top bit is 0; every
      int, negative ones included, reads back exactly. *)
  val u64 : t -> int -> unit

  (** IEEE-754 double, 8 bytes (the bits as they are: nan payloads,
      infinities and [-0.] read back bit for bit). *)
  val f64 : t -> float -> unit

  (** Length-prefixed string ({!u32} of the length, then the bytes). *)
  val string : t -> string -> unit

  (** Everything written so far, as a copy. *)
  val contents : t -> string

  (** Bytes written so far. *)
  val length : t -> int

  (** {!crc} of everything written so far, computed in place. *)
  val crc : t -> int

  (** [blocks t ~block_bytes] is everything written so far followed by
      zeroes up to the next multiple of [block_bytes]. When the buffer
      already has exactly that length it is returned itself, so the
      writer is finished: it is left empty, and the caller owns the
      bytes. *)
  val blocks : t -> block_bytes:int -> bytes
end

module Reader : sig
  type t

  (** [of_string s] starts reading at offset 0. *)
  val of_string : string -> t

  (** Each reader consumes the field its {!Writer} counterpart wrote and
      advances; all raise {!Corrupt} when the input is exhausted
      mid-field. *)

  val u8 : t -> int
  val u32 : t -> int
  val u64 : t -> int
  val f64 : t -> float
  val string : t -> string

  (** [count t ~max what] reads a {!u32} count of [what] and raises
      {!Corrupt} if it exceeds [max]: every count read from disk is
      bounded by what its structure can hold before anything is sized
      by it. *)
  val count : t -> max:int -> string -> int

  (** Bytes left to read. *)
  val remaining : t -> int
end

(** [crc s] — Adler-32 of [s]. Checkpoints, segment summaries and the
    superblock end with it; a mount verifies the checkpoint's. *)
val crc : string -> int
