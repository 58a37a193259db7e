(* Transport abstraction the sample-based protocols run over.

   Two carriers share one first-class record: the scalable abstract
   {!Medium} (big n) and the full radio/MAC node stack (faithful
   802.11b costs via unicast frames). The protocols only see
   point-to-point sends, per-node timers and a listen hook, so a run's
   carrier is a constructor argument, not a code path. *)

type t = {
  send : src:int -> dst:int -> bytes -> unit;
  timer : node:int -> delay:float -> (unit -> unit) -> unit;
  register : node:int -> (src:int -> bytes -> unit) -> unit;
}

let send t ~src ~dst payload = t.send ~src ~dst payload
let timer t ~node ~delay f = t.timer ~node ~delay f
let register t ~node f = t.register ~node f

let of_medium m =
  {
    send = (fun ~src ~dst payload -> Medium.send m ~src ~dst payload);
    timer =
      (fun ~node:_ ~delay f -> ignore (Net.Engine.schedule (Medium.engine m) ~delay f));
    register = (fun ~node f -> Medium.set_handler m ~node f);
  }

let of_nodes nodes ~port =
  {
    send = (fun ~src ~dst payload -> Net.Node.unicast nodes.(src) ~dst ~port payload);
    timer = (fun ~node ~delay f -> ignore (Net.Node.set_timer nodes.(node) ~delay f));
    register =
      (fun ~node f ->
        Net.Node.listen nodes.(node) ~port (fun ~src payload -> f ~src payload));
  }
