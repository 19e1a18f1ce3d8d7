type kind =
  | Enqueue
  | Dequeue
  | Transmit
  | Drop
  | Txq_drop
  | Arrival
  | Marker_sent
  | Marker_applied
  | Skip
  | Block
  | Unblock
  | Reset_barrier
  | Deliver
  | Round
  | Channel_down
  | Channel_up
  | Watchdog_skip
  | Suspend
  | Resume
  | Dup_discard
  | Reorder_restore
  | Corrupt_discard
  | Buffer_overflow
  | Retune
  | Crash
  | Restart
  | Epoch_discard
  | Violation
  | Health_suspect
  | Probation
  | Quarantine
  | Reinstate

type t = {
  time : float;
  kind : kind;
  channel : int;
  round : int;
  dc : int;
  size : int;
  seq : int;
}

let v ?(channel = -1) ?(round = -1) ?(dc = 0) ?(size = -1) ?(seq = -1) ~time
    kind =
  { time; kind; channel; round; dc; size; seq }

let n_kinds = 32

(* Dense index for counter arrays; keep in sync with [kind] and
   [n_kinds]. *)
let kind_index = function
  | Enqueue -> 0
  | Dequeue -> 1
  | Transmit -> 2
  | Drop -> 3
  | Txq_drop -> 4
  | Arrival -> 5
  | Marker_sent -> 6
  | Marker_applied -> 7
  | Skip -> 8
  | Block -> 9
  | Unblock -> 10
  | Reset_barrier -> 11
  | Deliver -> 12
  | Round -> 13
  | Channel_down -> 14
  | Channel_up -> 15
  | Watchdog_skip -> 16
  | Suspend -> 17
  | Resume -> 18
  | Dup_discard -> 19
  | Reorder_restore -> 20
  | Corrupt_discard -> 21
  | Buffer_overflow -> 22
  | Retune -> 23
  | Crash -> 24
  | Restart -> 25
  | Epoch_discard -> 26
  | Violation -> 27
  | Health_suspect -> 28
  | Probation -> 29
  | Quarantine -> 30
  | Reinstate -> 31

let kind_name = function
  | Enqueue -> "enqueue"
  | Dequeue -> "dequeue"
  | Transmit -> "transmit"
  | Drop -> "drop"
  | Txq_drop -> "txq_drop"
  | Arrival -> "arrival"
  | Marker_sent -> "marker_sent"
  | Marker_applied -> "marker_applied"
  | Skip -> "skip"
  | Block -> "block"
  | Unblock -> "unblock"
  | Reset_barrier -> "reset_barrier"
  | Deliver -> "deliver"
  | Round -> "round"
  | Channel_down -> "channel_down"
  | Channel_up -> "channel_up"
  | Watchdog_skip -> "watchdog_skip"
  | Suspend -> "suspend"
  | Resume -> "resume"
  | Dup_discard -> "dup_discard"
  | Reorder_restore -> "reorder_restore"
  | Corrupt_discard -> "corrupt_discard"
  | Buffer_overflow -> "buffer_overflow"
  | Retune -> "retune"
  | Crash -> "crash"
  | Restart -> "restart"
  | Epoch_discard -> "epoch_discard"
  | Violation -> "violation"
  | Health_suspect -> "health_suspect"
  | Probation -> "probation"
  | Quarantine -> "quarantine"
  | Reinstate -> "reinstate"

let all_kinds =
  [
    Enqueue; Dequeue; Transmit; Drop; Txq_drop; Arrival; Marker_sent;
    Marker_applied; Skip; Block; Unblock; Reset_barrier; Deliver; Round;
    Channel_down; Channel_up; Watchdog_skip; Suspend; Resume; Dup_discard;
    Reorder_restore; Corrupt_discard; Buffer_overflow; Retune; Crash; Restart;
    Epoch_discard; Violation; Health_suspect; Probation; Quarantine;
    Reinstate;
  ]

let kind_of_name s =
  List.find_opt (fun k -> kind_name k = s) all_kinds

let to_json e =
  Printf.sprintf
    "{\"t\":%.9f,\"ev\":\"%s\",\"ch\":%d,\"round\":%d,\"dc\":%d,\"size\":%d,\"seq\":%d}"
    e.time (kind_name e.kind) e.channel e.round e.dc e.size e.seq

let csv_header = "time,event,channel,round,dc,size,seq"

let to_csv e =
  Printf.sprintf "%.9f,%s,%d,%d,%d,%d,%d" e.time (kind_name e.kind) e.channel
    e.round e.dc e.size e.seq
