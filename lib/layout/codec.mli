(** Little-endian binary encoding helpers for on-disk structures.

    Every persistent structure (superblock, checkpoint, inode, segment
    summary) round-trips through these, so a PFS image written by one
    process mounts in another. A writer appends into a growing buffer; a
    reader walks a string with bounds checking and raises {!Corrupt} on
    malformed input rather than crashing. *)

exception Corrupt of string

module Writer : sig
  type t

  (** A fresh, empty buffer. *)
  val create : unit -> t

  (** One byte; raises [Invalid_argument] outside [0, 255]. *)
  val u8 : t -> int -> unit

  (** Four bytes, little-endian; raises [Invalid_argument] outside
      the unsigned 32-bit range. *)
  val u32 : t -> int -> unit

  (** 63-bit OCaml ints, stored as 8 bytes. *)
  val u64 : t -> int -> unit

  (** IEEE-754 double, 8 bytes. *)
  val f64 : t -> float -> unit

  (** Length-prefixed string. *)
  val string : t -> string -> unit

  (** Everything written so far. *)
  val contents : t -> string

  (** Bytes written so far. *)
  val length : t -> int
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

  (** Bytes left to read. *)
  val remaining : t -> int
end

(** [crc s] — a simple 32-bit checksum (Adler-32 flavour) used to verify
    checkpoints and the superblock. *)
val crc : string -> int
