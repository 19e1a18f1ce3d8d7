module Obs = Stripe_obs

let table ?(title = "per-channel counters") (reg : Obs.Counters.t) =
  let tbl =
    Table.create ~title
      ~columns:
        [
          "ch"; "tx pkts"; "tx bytes"; "arrived"; "delivered"; "dropped";
          "txq drop"; "skips"; "wd skip"; "down"; "mk tx"; "mk rx"; "buf hw";
          "dup"; "reord"; "rdepth"; "crpt"; "ovfl";
        ]
  in
  for i = 0 to Obs.Counters.n_channels reg - 1 do
    let c = Obs.Counters.channel reg i in
    Table.add_row tbl
      [
        string_of_int i;
        string_of_int c.Obs.Counters.tx_packets;
        string_of_int c.Obs.Counters.tx_bytes;
        string_of_int c.Obs.Counters.arrivals;
        string_of_int c.Obs.Counters.delivered_packets;
        string_of_int c.Obs.Counters.drops;
        string_of_int c.Obs.Counters.txq_drops;
        string_of_int c.Obs.Counters.skips;
        string_of_int c.Obs.Counters.watchdog_skips;
        string_of_int c.Obs.Counters.downs;
        string_of_int c.Obs.Counters.markers_sent;
        string_of_int c.Obs.Counters.markers_applied;
        string_of_int c.Obs.Counters.hw_buffered_packets;
        string_of_int c.Obs.Counters.dup_discards;
        string_of_int c.Obs.Counters.reorder_restores;
        string_of_int c.Obs.Counters.reorder_depth;
        string_of_int c.Obs.Counters.corrupt_discards;
        string_of_int c.Obs.Counters.buffer_overflows;
      ]
  done;
  tbl

let merged_table ?title regs = table ?title (Obs.Counters.merged regs)

let render ?title reg =
  let s = Table.render (table ?title reg) in
  let no_ch = Obs.Counters.no_channel_drops reg in
  if no_ch = 0 then s
  else
    Printf.sprintf "%s(dropped with every channel suspended: %d)\n" s no_ch

let balance reg =
  let s = Summary.create () in
  for i = 0 to Obs.Counters.n_channels reg - 1 do
    Summary.add s
      (float_of_int (Obs.Counters.channel reg i).Obs.Counters.tx_bytes)
  done;
  s
