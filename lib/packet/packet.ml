type kind =
  | Data
  | Marker of {
      m_channel : int;
      m_round : int;
      m_dc : int;
      m_credit : int;
      m_reset : bool;
      m_epoch : int;
      m_gen : int;
      m_cksum : int;
    }

type meta = { flow : int; frame : int; off : int }

type t = {
  seq : int;
  size : int;
  kind : kind;
  meta : meta;
  born : float;
}

let no_meta = { flow = 0; frame = -1; off = -1 }
let no_credit = -1
let marker_size = 36

(* 16-bit integrity checksum over every marker field except the checksum
   itself. A corrupted marker that slipped past the link CRC would
   otherwise poison the receiver's (round, DC) state; with the checksum
   the receiver can discard it and resynchronize from the next good
   marker (Theorem 5.1 still applies — a discarded marker is just a lost
   marker). Fowler–Noll–Vo-style mixing; strength is irrelevant, we only
   need random damage to miss the right value with high probability. *)
let marker_checksum_of ~channel ~round ~dc ~credit ~reset ~epoch ~gen =
  let mix acc v = (acc * 16777619) lxor (v land 0xffffffff) in
  let acc = 2166136261 in
  let acc = mix acc channel in
  let acc = mix acc round in
  let acc = mix acc dc in
  let acc = mix acc credit in
  let acc = mix acc (if reset then 1 else 0) in
  let acc = mix acc epoch in
  let acc = mix acc gen in
  (acc lxor (acc lsr 16)) land 0xffff

let marker_valid t =
  match t.kind with
  | Data -> true
  | Marker m ->
    m.m_cksum
    = marker_checksum_of ~channel:m.m_channel ~round:m.m_round ~dc:m.m_dc
        ~credit:m.m_credit ~reset:m.m_reset ~epoch:m.m_epoch ~gen:m.m_gen

(* An untagged packet shares [no_meta]: its record is 6 words. *)
let data ?(flow = 0) ?(frame = -1) ?(off = -1) ?(born = 0.0) ~seq ~size () =
  if size <= 0 then invalid_arg "Packet.data: size must be positive";
  let meta =
    if flow = 0 && frame = -1 && off = -1 then no_meta
    else { flow; frame; off }
  in
  { seq; size; kind = Data; meta; born }

let flow t = t.meta.flow
let frame t = t.meta.frame
let off t = t.meta.off

let marker_with ~credit ~reset ~epoch ~gen ~channel ~round ~dc ~born =
  {
    seq = -1;
    size = marker_size;
    kind =
      Marker
        {
          m_channel = channel;
          m_round = round;
          m_dc = dc;
          m_credit = credit;
          m_reset = reset;
          m_epoch = epoch;
          m_gen = gen;
          m_cksum =
            marker_checksum_of ~channel ~round ~dc ~credit ~reset ~epoch ~gen;
        };
    meta = no_meta;
    born;
  }

let marker ?(credit = no_credit) ?(reset = false) ?(epoch = 0) ?(gen = 0)
    ~channel ~round ~dc ~born () =
  marker_with ~credit ~reset ~epoch ~gen ~channel ~round ~dc ~born

(* Wire damage that the link CRC missed: perturb the (round, DC) stamp —
   the fields whose corruption is dangerous — while keeping the now-stale
   checksum, so [marker_valid] is false. [m_channel] is left alone: in a
   real deployment the marker arrives on a physical port, so the receiver
   never routes by a payload channel field; tests rely on that too. *)
let mangle_marker ~salt t =
  match t.kind with
  | Data -> t
  | Marker m ->
    let salt = (salt land 0x3fffffff) lor 1 in
    let round = m.m_round lxor salt in
    let dc = m.m_dc lxor (salt * 7919) in
    (* Degenerate salts could map the stamp to itself; force a change. *)
    let dc = if round = m.m_round && dc = m.m_dc then m.m_dc + 1 else dc in
    { t with kind = Marker { m with m_round = round; m_dc = dc } }

let is_marker t = match t.kind with Marker _ -> true | Data -> false

(* Its stamp describes no channel's stream, so a reader that takes the
   sentinel for the marker it stands for reads a marker no receiver
   would trust on any channel but -1. *)
let marker_sentinel =
  marker_with ~credit:no_credit ~reset:false ~epoch:0 ~gen:0 ~channel:(-1)
    ~round:0 ~dc:0 ~born:0.0

let pp fmt t =
  match t.kind with
  | Data -> Format.fprintf fmt "#%d(%dB)" t.seq t.size
  | Marker m ->
    Format.fprintf fmt "M(ch=%d,R=%d,DC=%d%s%s)" m.m_channel m.m_round m.m_dc
      (if m.m_credit = no_credit then ""
       else Printf.sprintf ",credit=%d" m.m_credit)
      ((if m.m_reset then ",reset" else "")
      ^ (if m.m_epoch <> 0 then Printf.sprintf ",e=%d" m.m_epoch else "")
      ^ if m.m_gen <> 0 then Printf.sprintf ",g=%d" m.m_gen else "")

let equal a b = a = b

let compare_seq a b = Int.compare a.seq b.seq
