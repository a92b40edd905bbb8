module Netlist = Minflo_netlist.Netlist
module Gate = Minflo_netlist.Gate

type network = Device of int | Series of network list | Parallel of network list

let topology kind ~arity =
  let devices = List.init arity (fun p -> Device p) in
  match kind with
  | Gate.Not | Gate.Buf ->
    (* BUF is modelled as a single restoring stage *)
    (Device 0, Device 0)
  | Gate.Nand -> (Series devices, Parallel devices)
  | Gate.Nor -> (Parallel devices, Series devices)
  | (Gate.And | Gate.Or | Gate.Xor | Gate.Xnor) as k ->
    invalid_arg
      (Printf.sprintf
         "Transistor.topology: %s is not a single CMOS stage; run \
          Transform.to_nand_inv first"
         (Gate.to_string k))

(* Flatten the supported shapes. [chain] is ordered supply-side first,
   output-side last; [parallel] devices all touch both rails of the stage. *)
type shape =
  | Chain of int list (* pin indices, supply -> output *)
  | Par of int list

let shape_of = function
  | Device p -> Chain [ p ]
  | Series nets ->
    (* Series [d0; ...; dk] is written output-side first (pin 0 at the
       output, like figure 1's N3..N1 stack); flip to supply-first *)
    List.rev_map (function Device p -> p | _ -> invalid_arg "Transistor: nested network") nets
    |> fun pins -> Chain pins
  | Parallel nets ->
    Par (List.map (function Device p -> p | _ -> invalid_arg "Transistor: nested network") nets)

let pins_of = function Chain pins | Par pins -> pins

(* output-adjacent devices: their drains load the gate's output node *)
let output_adjacent = function
  | Chain pins -> [ List.nth pins (List.length pins - 1) ]
  | Par pins -> pins

let roots = function
  | Chain pins -> [ List.hd pins ]
  | Par pins -> pins

let leaves = function
  | Chain pins -> [ List.nth pins (List.length pins - 1) ]
  | Par pins -> pins

(* vertex numbering: gates in node order; per gate all NMOS devices (pin
   order) then all PMOS devices *)
let layout nl =
  let base = Hashtbl.create (Netlist.node_count nl) in
  let next = ref 0 in
  Netlist.iter_gates nl (fun v ->
      Hashtbl.add base v !next;
      next := !next + (2 * List.length (Netlist.fanins nl v)));
  (base, !next)

let arity_of nl v = List.length (Netlist.fanins nl v)

let nmos_vertex base nl v pin =
  ignore nl;
  Hashtbl.find base v + pin

let pmos_vertex base nl v pin = Hashtbl.find base v + arity_of nl v + pin

let of_netlist (tech : Tech.t) nl =
  Netlist.validate nl;
  let base, n = layout nl in
  let edges = ref [] in
  let add_edge u v = edges := (u, v) :: !edges in
  let a_self = Array.make n 0.0 in
  let a_acc : (int, float) Hashtbl.t array = Array.init n (fun _ -> Hashtbl.create 4) in
  let b = Array.make n 0.0 in
  let is_sink = Array.make n false in
  let block = Array.make n 0 in
  let labels = Array.make n "" in
  let add_a i j x =
    if j = i then a_self.(i) <- a_self.(i) +. x
    else
      Hashtbl.replace a_acc.(i) j
        (x +. Option.value ~default:0.0 (Hashtbl.find_opt a_acc.(i) j))
  in
  (* the two networks of every gate, as shapes, pin -> vertex resolved *)
  let shapes v =
    match Netlist.kind nl v with
    | Netlist.Gate k ->
      let pd, pu = topology k ~arity:(arity_of nl v) in
      (shape_of pd, shape_of pu)
    | Netlist.Input -> assert false
  in
  (* pin capacitance terms on a wire driven by gate v: the NMOS and PMOS
     gates of every connected pin of every fanout gate *)
  let receiving_devices v =
    List.concat_map
      (fun w ->
        List.concat
          (List.mapi
             (fun pin f ->
               if f = v then [ nmos_vertex base nl w pin; pmos_vertex base nl w pin ]
               else [])
             (Netlist.fanins nl w)))
      (List.sort_uniq compare (Netlist.fanouts nl v))
  in
  Netlist.iter_gates nl (fun v ->
      let pd, pu = shapes v in
      let k = arity_of nl v in
      let name = Netlist.node_name nl v in
      let fanout_count = List.length (Netlist.fanouts nl v) in
      let fixed_out_cap =
        (tech.c_wire *. float_of_int fanout_count)
        +. if Netlist.is_output nl v then tech.c_load else 0.0
      in
      let recv = receiving_devices v in
      (* per-network coefficient generation *)
      let emit ~own ~other ~r ~vertex_of ~other_vertex_of =
        let own_pins = pins_of own in
        let out_adj_other = output_adjacent other in
        let emit_output_node_into i =
          (* C_out: own output-adjacent drains handled by callers; shared
             terms: other network's output-adjacent drains, wire + load,
             receiving pins *)
          List.iter (fun p -> add_a i (other_vertex_of p) (r *. tech.c_drain)) out_adj_other;
          b.(i) <- b.(i) +. (r *. fixed_out_cap);
          List.iter (fun j -> add_a i j (r *. tech.c_gate)) recv
        in
        match own with
        | Par _ ->
          (* each device discharges alone; output node carries all sibling
             drains *)
          List.iter
            (fun p ->
              let i = vertex_of p in
              List.iter (fun q -> add_a i (vertex_of q) (r *. tech.c_drain)) own_pins;
              emit_output_node_into i)
            own_pins
        | Chain pins ->
          (* supply-first chain s_1 .. s_k; internal node j between s_j and
             s_{j+1} has cap c_d (x_j + x_{j+1}); vertex m collects nodes
             j >= m (Eq. 2/3) *)
          let arr = Array.of_list pins in
          let kk = Array.length arr in
          for m = 0 to kk - 1 do
            let i = vertex_of arr.(m) in
            for j = m to kk - 2 do
              add_a i (vertex_of arr.(j)) (r *. tech.c_drain);
              add_a i (vertex_of arr.(j + 1)) (r *. tech.c_drain)
            done;
            (* output node: own top drain *)
            add_a i (vertex_of arr.(kk - 1)) (r *. tech.c_drain);
            emit_output_node_into i
          done
      in
      let nv p = nmos_vertex base nl v p and pv p = pmos_vertex base nl v p in
      emit ~own:pd ~other:pu ~r:tech.r_n ~vertex_of:nv ~other_vertex_of:pv;
      emit ~own:pu ~other:pd ~r:tech.r_p ~vertex_of:pv ~other_vertex_of:nv;
      (* labels, blocks, sinks *)
      for p = 0 to k - 1 do
        labels.(nv p) <- Printf.sprintf "%s/N%d" name p;
        labels.(pv p) <- Printf.sprintf "%s/P%d" name p;
        block.(nv p) <- v;
        block.(pv p) <- v
      done;
      if Netlist.is_output nl v then
        List.iter
          (fun (sh, vertex_of) ->
            List.iter (fun p -> is_sink.(vertex_of p) <- true) (leaves sh))
          [ (pd, nv); (pu, pv) ];
      (* intra-gate chain edges: supply side -> output side *)
      let chain_edges sh vertex_of =
        match sh with
        | Par _ -> ()
        | Chain pins ->
          let arr = Array.of_list pins in
          for j = 0 to Array.length arr - 2 do
            add_edge (vertex_of arr.(j)) (vertex_of arr.(j + 1))
          done
      in
      chain_edges pd nv;
      chain_edges pu pv;
      (* cross-gate edges: NMOS leaves drive the receivers' PMOS roots and
         vice versa (falling output turns on PMOS downstream) *)
      List.iter
        (fun w ->
          let wpd, wpu = shapes w in
          List.iteri
            (fun pin f ->
              if f = v then begin
                let reach_roots sh pin =
                  match sh with Chain _ -> roots sh | Par _ -> [ pin ]
                in
                List.iter
                  (fun src_pin ->
                    List.iter
                      (fun dst_pin ->
                        add_edge (nmos_vertex base nl v src_pin)
                          (pmos_vertex base nl w dst_pin))
                      (reach_roots wpu pin))
                  (leaves pd);
                List.iter
                  (fun src_pin ->
                    List.iter
                      (fun dst_pin ->
                        add_edge (pmos_vertex base nl v src_pin)
                          (nmos_vertex base nl w dst_pin))
                      (reach_roots wpd pin))
                  (leaves pu)
              end)
            (Netlist.fanins nl w))
        (List.sort_uniq compare (Netlist.fanouts nl v)));
  Delay_model.make ~n ~edges:(List.rev !edges) ~a_self ~coeffs:a_acc ~b
    ~area_weight:(Array.make n 1.0) ~is_sink ~block ~labels
    ~min_size:tech.min_size ~max_size:tech.max_size
