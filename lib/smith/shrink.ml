(** IR-level delta debugger for failing generated programs
    (docs/FUZZING.md).

    Works on the HiSPN graph directly — op removal with re-verify, the
    IR analogue of [Spnc_resilience.Fuzz.model_subject]'s model
    reduction.  Two op-level reductions are offered, each followed by
    DCE (dropping the leaves the removal orphaned) and a verifier run
    (candidates that stop verifying or do not shrink are discarded):

    - {e forward}: delete an inner sum/product and route one of its
      operands to its uses;
    - {e narrow}: drop one operand of a sum/product with two or more
      operands (sum weights are renormalized so the op still verifies).

    {!subject} plugs them into [Spnc_resilience.Fuzz.shrink], whose
    greedy loop also reduces the evidence rows. *)

open Spnc_mlir
module Hi = Spnc_hispn.Ops

let count_ops (m : Ir.modul) = Ir.count_ops (fun _ -> true) m

(* Locate the graph block inside the single joint_query and rebuild the
   module around a transformed op list. *)
let map_graph_ops (m : Ir.modul) (f : Ir.op list -> Ir.op list option) :
    Ir.modul option =
  match m.Ir.mops with
  | [ query ] when query.Ir.name = Hi.joint_query_name -> (
      match query.Ir.regions with
      | [ { Ir.blocks = [ qblk ] } ] -> (
          match qblk.Ir.bops with
          | [ graph ] when graph.Ir.name = Hi.graph_name -> (
              match graph.Ir.regions with
              | [ { Ir.blocks = [ gblk ] } ] -> (
                  match f gblk.Ir.bops with
                  | None -> None
                  | Some bops' ->
                      let gblk' = { gblk with Ir.bops = bops' } in
                      let graph' =
                        {
                          graph with
                          Ir.regions = [ { Ir.blocks = [ gblk' ] } ];
                        }
                      in
                      let qblk' = { qblk with Ir.bops = [ graph' ] } in
                      let query' =
                        {
                          query with
                          Ir.regions = [ { Ir.blocks = [ qblk' ] } ];
                        }
                      in
                      Some { m with Ir.mops = [ query' ] })
              | _ -> None)
          | _ -> None)
      | _ -> None)
  | _ -> None

(* Substitute values through a vid map in the operand lists of [ops]. *)
let subst (map : Ir.value Ir.VMap.t) (ops : Ir.op list) : Ir.op list =
  let sub v = match Ir.VMap.find_opt v map with Some w -> w | None -> v in
  List.map
    (fun (o : Ir.op) -> { o with Ir.operands = List.map sub o.Ir.operands })
    ops

let is_inner (o : Ir.op) =
  o.Ir.name = Hi.sum_name || o.Ir.name = Hi.product_name

(* All one-step op-level reductions of [m], DCE'd; invalid candidates
   are filtered by the caller. *)
let op_candidates (m : Ir.modul) : Ir.modul list =
  let reductions ops =
    List.concat_map
      (fun (o : Ir.op) ->
        if not (is_inner o) then []
        else
          let r = Ir.result o in
          let without = List.filter (fun x -> x != o) ops in
          (* forward: replace the op by one of its operands *)
          let forwards =
            List.map
              (fun operand ->
                subst (Ir.VMap.singleton r operand) without)
              o.Ir.operands
          in
          (* narrow: drop one operand (renormalizing sum weights) *)
          let narrows =
            if List.length o.Ir.operands < 2 then []
            else
              List.concat
                (List.mapi
                   (fun j _ ->
                     let operands' =
                       List.filteri (fun i _ -> i <> j) o.Ir.operands
                     in
                     let attrs' =
                       if o.Ir.name = Hi.sum_name then
                         match Ir.dense_attr o "weights" with
                         | Some w ->
                             let w' =
                               Array.of_list
                                 (List.filteri
                                    (fun i _ -> i <> j)
                                    (Array.to_list w))
                             in
                             let total = Array.fold_left ( +. ) 0.0 w' in
                             if total <= 1e-9 then None
                             else
                               Some
                                 (Attr.Dict.set o.Ir.attrs "weights"
                                    (Attr.DenseF
                                       (Array.map
                                          (fun x -> x /. total)
                                          w')))
                         | None -> None
                       else Some o.Ir.attrs
                     in
                     match attrs' with
                     | None -> []
                     | Some attrs' ->
                         [
                           List.map
                             (fun x ->
                               if x == o then
                                 {
                                   o with
                                   Ir.operands = operands';
                                   attrs = attrs';
                                 }
                               else x)
                             ops;
                         ])
                   o.Ir.operands)
          in
          forwards @ narrows)
      ops
  in
  let current = ref None in
  ignore
    (map_graph_ops m (fun ops ->
         current := Some ops;
         None));
  match !current with
  | None -> []
  | Some ops ->
      List.filter_map
        (fun ops' -> Option.map Rewrite.dce (map_graph_ops m (fun _ -> Some ops')))
        (reductions ops)

(** Programs: verifying, strictly smaller op-level reductions, with the
    IR shrinker's larger budget. *)
let subject : Ir.modul Spnc_resilience.Fuzz.subject =
  {
    name = "program";
    ext = "mlir";
    size_unit = "ops";
    size = count_ops;
    print = Printer.modul_to_string;
    candidates =
      (fun m ->
        List.filter
          (fun m' -> count_ops m' < count_ops m && Verifier.is_valid m')
          (op_candidates m));
    max_steps = 400;
  }
