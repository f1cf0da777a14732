"""Byte-stability of every CLI report on the built-in corpus.

Each case runs the CLI in-process and compares the exit code and the SHA-256
of stdout with a digest recorded before the coset-table core was unified;
the genus2 index-4 stability digest was recorded before stability rows were
read from the cover's boundary, the redundant index-4 stability digest
and the genus2 and free2 subgroups digests before the low-index search
enumerated conjugacy classes, and the `modp` digests at normal index 4
before `modp` searched normal subgroups alone.  Every `stability` and
`modp` digest that changed was re-recorded at tool_version 0.2.0, when
`stability` went to one row per conjugacy class and `modp` dropped its
vacuous euler_identity_residual.  A changed digest means a report
changed; there is deliberately no way to regenerate the table from this
file.  Three reports are also run in a `python -O` subprocess against
their digests.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from deflab.cli import main
from deflab.corpus import CORPUS

# witness supports (x, -x) on dup_relator: index 2, and index 6 through
# pairwise intersections of normal cores
WITNESSES = {
    "w_a": ["1", "a"],
    "w_ab": ["1", "a", "b", "a b", "b a"],
}


MODP_AT_4 = ("free2", "torus", "dup_relator", "d4", "q8")


def case_keys():
    keys = []
    for name in sorted(CORPUS):
        spec = f"corpus:{name}"
        k = "2" if name == "genus3" else "3"
        keys += [
            f"parse {spec}",
            f"subgroups {spec} --max-index {k}",
            f"schreier {spec} --index-spec 1-{k}",
            f"homology {spec}",
            f"homology {spec} --field 2",
            f"homology {spec} --quotient core:2:1",
            f"deficiency {spec}",
            f"stability {spec} --max-index {k}",
            f"modp {spec} -p 2 --normal-index 2",
        ]
    keys += [f"cert corpus:dup_relator --witness {w}" for w in WITNESSES]
    keys.append("stability corpus:genus2 --max-index 4")  # 1,731 rows, as in cover_sweep
    keys.append("stability corpus:redundant --max-index 4")  # as in cover_sweep
    keys.append("subgroups corpus:genus2 --max-index 4")
    keys.append("subgroups corpus:free2 --max-index 5")
    # index 4 has non-normal subgroups, which the normal search prunes
    keys += [f"modp corpus:{name} -p 2 --normal-index 4" for name in MODP_AT_4]
    return keys


def run_case(key, tmp_path):
    argv = key.split()
    if argv[0] == "cert":
        words = WITNESSES[argv[-1]]
        path = tmp_path / f"{argv[-1]}.json"
        path.write_text(
            json.dumps({"rho": [[[w, 1] for w in words], [[w, -1] for w in words]]})
        )
        argv[-1] = str(path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


GOLDEN = {
    'parse corpus:c2': (0, 'bf2180d672658a6688c6179cdd13859d09cb66a0511d82d84f1d2f7ce8d137b6'),
    'subgroups corpus:c2 --max-index 3': (0, '73a68e00b0414fb7c3ccdf4fb780a07fb75e9b0e97ec6945007d43dc490c9d39'),
    'schreier corpus:c2 --index-spec 1-3': (0, '58976de6933adde0c766c156d780d12e3bbf61587ebe3e52a2c18862a6a206f3'),
    'homology corpus:c2': (0, 'd0b4c0ba43aa2a6231be29d41de53378031e9a6adeba2c4004cd08a454fd8a83'),
    'homology corpus:c2 --field 2': (0, 'a3816f29bf8ee6342a13fb71df87d5ec1d661e1526ca499cbebcebe41d152b7d'),
    'homology corpus:c2 --quotient core:2:1': (0, 'de1e0d6cf8a7ed3c8c05fc73cd272b01d8a8914b8769559d0645eead518a0cbb'),
    'deficiency corpus:c2': (0, '77f3f714511ee84adde1bcb3b46aad2e77454e947f5d7b03abdb6667f7633c21'),
    'stability corpus:c2 --max-index 3': (2, 'b04e53d89d87c0dca3f2613eb3f4158113c38baf9d3930b7eb4b37d023c33343'),
    'modp corpus:c2 -p 2 --normal-index 2': (0, '8b15e760b34ddf97fe507098c38b2194036ba745d79139cf735fc303c3aca052'),
    'parse corpus:c2xc2': (0, 'e71bbd3f56134f22ce4844ce5f095f19d0b18b6ab00e9cefab25b3d2eb9a48ae'),
    'subgroups corpus:c2xc2 --max-index 3': (0, '0812c95d3d5dc8fe433cc38d6d733d15db923c0a6b2c72f12acf5f51eef3584c'),
    'schreier corpus:c2xc2 --index-spec 1-3': (0, 'c42077801f4f5ce85924654896b2af7966d0ea4aaf3cee6425b8249182e2d774'),
    'homology corpus:c2xc2': (0, '834ec5aa6ab00fdb6def0d8db0b3727b86c9904df77a4526609e7f8d0f263e02'),
    'homology corpus:c2xc2 --field 2': (0, '0668c0e726dc87da53bff436b63daa86ee6c8593bc873eff4134cdac9ebb655d'),
    'homology corpus:c2xc2 --quotient core:2:1': (0, '267dcfe78c8d48b2269d1ac3e03da5906cbf79f4a3513a6ee2a516abfdea7bbd'),
    'deficiency corpus:c2xc2': (0, '0cd055044a70abb6b8d555020111c802d78a8f15571e8ee4d97e7bf985b48785'),
    'stability corpus:c2xc2 --max-index 3': (2, '7416d6b5c6e9e17d0deb99f83a9ed4ced1faaa1ace5d36ce2f87a0d6497e9222'),
    'modp corpus:c2xc2 -p 2 --normal-index 2': (0, 'a96350018b85092d5f90eaa7d923b35fe3406da7769c703f31ad5163d77ab5c9'),
    'parse corpus:c3': (0, 'd0e1cc14fc9e2473e2da15597178bda12bd220353878b79ec2e5e627223111fc'),
    'subgroups corpus:c3 --max-index 3': (0, '798e247f11c4e2e2c6ba733f754a64fbe2370e9a8c5e6d6b577f2425a740d327'),
    'schreier corpus:c3 --index-spec 1-3': (0, '8ed92720fd9406651fb623ced79ad583003c5649ca9830e4a313c41d0e3e59f5'),
    'homology corpus:c3': (0, '9195d87a02a0f0aef0d7a575d3eaf55854d730a7189ab469df392d3188d7e215'),
    'homology corpus:c3 --field 2': (0, '4058b0ae1f62b405f176cceec04f1fff4a4530cfc220352ce963d4f75ca61095'),
    'homology corpus:c3 --quotient core:2:1': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'deficiency corpus:c3': (0, '77f3f714511ee84adde1bcb3b46aad2e77454e947f5d7b03abdb6667f7633c21'),
    'stability corpus:c3 --max-index 3': (2, '94e5abc3e740850cddfc96d4455eff846952ae1155f06bbd59ab32a9d809260c'),
    'modp corpus:c3 -p 2 --normal-index 2': (0, '37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570'),
    'parse corpus:c4': (0, '465684395b81e49f74f826a39907c73ac870c347d4b1702e618a8c8560fc330e'),
    'subgroups corpus:c4 --max-index 3': (0, '73a68e00b0414fb7c3ccdf4fb780a07fb75e9b0e97ec6945007d43dc490c9d39'),
    'schreier corpus:c4 --index-spec 1-3': (0, 'd2e3e1ae272d8dc3c91b66c9eb17be5b3d166c0e47d172a6690da73319848f67'),
    'homology corpus:c4': (0, '4d724aebd9c8076ac3392552587542da6630617310fbae7fc13f5c05cf315cda'),
    'homology corpus:c4 --field 2': (0, 'a3816f29bf8ee6342a13fb71df87d5ec1d661e1526ca499cbebcebe41d152b7d'),
    'homology corpus:c4 --quotient core:2:1': (0, '73fe1dbd183b31a05f0f7ebe2f89a3e51b849d38def2fa824106cfde913c43d7'),
    'deficiency corpus:c4': (0, '77f3f714511ee84adde1bcb3b46aad2e77454e947f5d7b03abdb6667f7633c21'),
    'stability corpus:c4 --max-index 3': (2, 'b09f2a11ed517ba7b14ed573005ccee331068b1bc3b87b0ded4fe10ed2c05242'),
    'modp corpus:c4 -p 2 --normal-index 2': (0, 'cfb7877710422cf30767f82de5cccb5b3cf801afdaa1a0341710113d6f44e965'),
    'parse corpus:c5': (0, '6ba0e5ddfb1461a91e4f3fffb208db4dfe370d60966acf7af754957d7ea7188a'),
    'subgroups corpus:c5 --max-index 3': (0, '205b936441d41e80a17df348eef083c07e7f73ff982ccd88d595ba0bb88eeded'),
    'schreier corpus:c5 --index-spec 1-3': (0, '1da2e085f74cac03c7badf0527abe07a5b300047623f0201f857523d437be447'),
    'homology corpus:c5': (0, '7c5d95e0741b735c1c6179d3d665541174032d210bd00e51ac58ab5272448689'),
    'homology corpus:c5 --field 2': (0, '4058b0ae1f62b405f176cceec04f1fff4a4530cfc220352ce963d4f75ca61095'),
    'homology corpus:c5 --quotient core:2:1': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'deficiency corpus:c5': (0, '77f3f714511ee84adde1bcb3b46aad2e77454e947f5d7b03abdb6667f7633c21'),
    'stability corpus:c5 --max-index 3': (0, '38b107b40b0116269e9d223fb3e286f0326598302494f2f2982a3f575b449866'),
    'modp corpus:c5 -p 2 --normal-index 2': (0, '37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570'),
    'parse corpus:d4': (0, 'd1ec99e8bfc32d42f62b2cb0ba9aa1f78ab8db35dc6483416b6acf484d155404'),
    'subgroups corpus:d4 --max-index 3': (0, 'c0f4473a64600677229ba9d6a1115f77c597b3c058e6dffac4a426887cd39fe4'),
    'schreier corpus:d4 --index-spec 1-3': (0, '6cd646637d17edf43eb5d03142f778579751f7b6a375c0d43d508248c3d1181a'),
    'homology corpus:d4': (0, '834ec5aa6ab00fdb6def0d8db0b3727b86c9904df77a4526609e7f8d0f263e02'),
    'homology corpus:d4 --field 2': (0, '0668c0e726dc87da53bff436b63daa86ee6c8593bc873eff4134cdac9ebb655d'),
    'homology corpus:d4 --quotient core:2:1': (0, 'cd0558864c4ccc7d21221c2d847d4f814102c00bb7aaa05043c8b58d080d6636'),
    'deficiency corpus:d4': (0, '0cd055044a70abb6b8d555020111c802d78a8f15571e8ee4d97e7bf985b48785'),
    'stability corpus:d4 --max-index 3': (2, '28a49a3bc9a6046c95bc921e1952b1d639ac682fa0719f768f2e630e84f5ac4a'),
    'modp corpus:d4 -p 2 --normal-index 2': (0, '1260d7a3adc429393e994598efcb86e79f7d8d9f0a7fb53ec37fdd7784ba205e'),
    'parse corpus:dup_relator': (0, '6664a2abdf2d91b49afcd79ba61250d1fafe43e8d1f5aa6f67eacb4fe838f960'),
    'subgroups corpus:dup_relator --max-index 3': (0, '8f64bf5aaf146f521b767780f69c7dd3e9e85a7d9e3b971c8d5f337a44860d9c'),
    'schreier corpus:dup_relator --index-spec 1-3': (0, '34b54c63cd7a2f3dadc636185e1171c56cc3b0d2da0d1193964d63aaea2d696d'),
    'homology corpus:dup_relator': (0, 'efebbab015ab3c9c10d504b6c31e93b488e28622e257a54c84915714eb679b57'),
    'homology corpus:dup_relator --field 2': (0, 'ef1ac9962313b25a0da0455747cabad648758ab0df07c9ef0d0b9b885c8d9aaf'),
    'homology corpus:dup_relator --quotient core:2:1': (0, '0ee775d17b468b696a9161348bd1e66683d43102cb7cf1006384f1aef61533a1'),
    'deficiency corpus:dup_relator': (0, 'b125d454a242f58ed8d8bb797419237b6ac8db1ec439aa6370e106698370d580'),
    'stability corpus:dup_relator --max-index 3': (2, '4b51d8851234e299e3b938f0ae9f50b74c78f3718ee9a84250645a2402ed4829'),
    'modp corpus:dup_relator -p 2 --normal-index 2': (0, 'c5a152ec8faf736120ff9ee3daf56907e7565995bc68dbb654c5a485e76b34a6'),
    'parse corpus:f2xf2': (0, 'a94114628f9e629e31fc32e10aa0dd0a841b10cb142c13dccc1b67399c113c1e'),
    'subgroups corpus:f2xf2 --max-index 3': (0, 'fde571e36532b4f53e8d6abec312a60c3a2fa34c037df492ef466adea531afa5'),
    'schreier corpus:f2xf2 --index-spec 1-3': (0, 'b7efc50d8b5cf11f2dff77d3ae7bda1be71d6fc52aa0b53aa33fb6705cf4f258'),
    'homology corpus:f2xf2': (0, '03c406ebeb08af02279e77a9c82241d8538980d651db6ec56809ca782fa19789'),
    'homology corpus:f2xf2 --field 2': (0, 'd01627cfcdf8dfeaf5b5fcc1c883e7c8046f9f6589cf0f46f596f0c5a0bdc627'),
    'homology corpus:f2xf2 --quotient core:2:1': (0, '7bdb14c9e7427b0d3ef298e8b7f68860ee9ee3c750debc4b003aedaeeb6234b6'),
    'deficiency corpus:f2xf2': (0, 'f668dfd0775ac3c82ec98c144602bb4b95e031fab877bdb01aeb7fc95b260120'),
    'stability corpus:f2xf2 --max-index 3': (0, 'cb0ed88793ca353860d713dd011930d4bfef4986eb1ac1150293ab32351e90e0'),
    'modp corpus:f2xf2 -p 2 --normal-index 2': (0, '5e8add44212516086df97b7c94d4e8982da0a0f61f30ac1ad7ef47f7832aec4a'),
    'parse corpus:free1': (0, 'a552a0cd9a8f26117c86c59d499cd77854d7507d6be80798f7f3bf0da3c4b10a'),
    'subgroups corpus:free1 --max-index 3': (0, 'a603cf4a8b6780c9702eba6e988ba0f5c8170b1e2dc6b3771e9ead51785c6419'),
    'schreier corpus:free1 --index-spec 1-3': (0, '8ab1b0f719901f5c0b3547282ba15ce19ae7a00f89aa6a0b2e0f6f49013f95da'),
    'homology corpus:free1': (0, 'a22d2c8afe7d2a6e2d6f1ad799df4bc57f45424c6df966c0f05c463fd94c8aaa'),
    'homology corpus:free1 --field 2': (0, '5b71a0c149d0884714e53de865ee9c308e0f3cb6ca8233f1a6fe5b725930eb0c'),
    'homology corpus:free1 --quotient core:2:1': (0, '80344f8ee8f626769fe1d2104be8ad19700e16cbcd477b49b45ef2990569727c'),
    'deficiency corpus:free1': (0, 'b125d454a242f58ed8d8bb797419237b6ac8db1ec439aa6370e106698370d580'),
    'stability corpus:free1 --max-index 3': (0, 'fe1fd55f70afb4e1b4ad3e27f0922b535c0e801d9ef52f6964fcd03dd68e8967'),
    'modp corpus:free1 -p 2 --normal-index 2': (0, 'ed5122ba87e241f0ff18ff868759bef983bc136c75d71e06cb7bf1fa2ad832b8'),
    'parse corpus:free2': (0, '435769cc7ad402bf03af40a3ce04406090e8dfa898a6e1211f78031fe1fb32fc'),
    'subgroups corpus:free2 --max-index 3': (0, '51e7344285d0d87ae404bbe2c10e9e5266a23e3078949c63d0554c5bea42eca5'),
    'schreier corpus:free2 --index-spec 1-3': (0, 'b5e66922ea47db5f212a7ffc263d05b88600fa7d1cb2a28afa2aa5c706f99eb5'),
    'homology corpus:free2': (0, '38ccbe158063c160ff01f11524af83630ac0dadd5dcbcbd211dafe4ac34b83be'),
    'homology corpus:free2 --field 2': (0, '9c4e35ecac25882389cb496048c69e9f87ede50ea2451d28d8aee54d650217e2'),
    'homology corpus:free2 --quotient core:2:1': (0, '429b31a7082731a0924b3dcc00d74a20c9cb46a57730c340ace8517679086284'),
    'deficiency corpus:free2': (0, 'e83b054a58b5e43b1f1524a317fd83eaa354c10606a2e58f1532a3c93fad270d'),
    'stability corpus:free2 --max-index 3': (0, '15643e3df6f8cbf1dbe869b80444a1b09e7fa9a304b93dbec8aa829f2095188b'),
    'modp corpus:free2 -p 2 --normal-index 2': (0, 'e523e8920f6412824515832c5e71c8a516e97969efc527204eb55d5ffd57cb43'),
    'parse corpus:free3': (0, '2555c4c2e39a8fd8e4852e159b2fe999da3c0cf9294662452dec481c46073e6f'),
    'subgroups corpus:free3 --max-index 3': (0, '7355d579c17606c717857a9180587f1cea0eade19cb5ce4f5dafaf6f5c9d7f27'),
    'schreier corpus:free3 --index-spec 1-3': (0, 'f832d91b37b8455a5073733829ec91ba6276982f34212aba498e547e708c4bc3'),
    'homology corpus:free3': (0, '85b6b1a43d640d5358dad96fedd31697fb083cdfe1831abecb57e23d147526df'),
    'homology corpus:free3 --field 2': (0, '669845024bbb085382bc62a3b4d3b2429f850b6a4d7f802d4a24135fa37fcaa0'),
    'homology corpus:free3 --quotient core:2:1': (0, 'fa045823fe878038425b5a1dbd08ae0bab946360db170dc9fef41c4750832dc5'),
    'deficiency corpus:free3': (0, '707906bba2c2a1f6d1796241cfa725ab5d5a7f43c36d8dd8e4b59c6050362fc0'),
    'stability corpus:free3 --max-index 3': (0, 'd0cdadb3706789f3e723552425dace3e9bc7d51430b41ff3e8df25b064e770a3'),
    'modp corpus:free3 -p 2 --normal-index 2': (0, '6e841682727035626eecd6855ab7c6ef248b9410abdf9477c12d97a52812b935'),
    'parse corpus:genus2': (0, 'b01dbd37a6c971a3d4a76d576b7d9840a32b0f3a59dfd6e6e51808feb64f4b24'),
    'subgroups corpus:genus2 --max-index 3': (0, '4ce5096996e371f4def598a6f3e084c88f2fa175fada66cd3cc3d519bae7d624'),
    'schreier corpus:genus2 --index-spec 1-3': (0, '5559de5c91fdb6c4c6d5b5aee6e7f99a978dd4057e9ab6326c4d6d2ea89186dd'),
    'homology corpus:genus2': (0, '45ae41063967575d9523ca88778ef38986674065b353b650d67d0cc7fdb99db6'),
    'homology corpus:genus2 --field 2': (0, 'ea98903dadf5c7cfd3a867119abfc287bfe7f8414e48fe25310ac3f9a5e7d2a7'),
    'homology corpus:genus2 --quotient core:2:1': (0, '3c8ff7d3d9822df691dcaf7b48bf0c25e3fc201818f520b8477931dcaccc3bc7'),
    'deficiency corpus:genus2': (0, '0b3d4a0e155c5daf31a7b3cae735bb1a421659310b3b6fd9cafda9b4eebc2beb'),
    'stability corpus:genus2 --max-index 3': (0, 'cbfaf1ece2b8fd7b86ccdf410dd7df599e3b659e8534a9ac3e9976ccc3a23e0b'),
    'modp corpus:genus2 -p 2 --normal-index 2': (0, 'e48ebd5db0ebfceda7353e19089c45b6f9a6a31c44a38de3759588603ef27997'),
    'parse corpus:genus3': (0, '2bd370fbc6975db8ae077525974cba21e181ef4e661fcff40aee4fb53386b3cf'),
    'subgroups corpus:genus3 --max-index 2': (0, '523b28753700c2f2b42e8a5a88e0852132d3f6d8cfb03c550f46c573aec765e1'),
    'schreier corpus:genus3 --index-spec 1-2': (0, '574d99de9762a95ba3efecde222a729714885114796c6c006d49d755418112fe'),
    'homology corpus:genus3': (0, 'ce08343a6ba99cb7029b01075905b69ed38ed49f70a3837d10df249c8d04263f'),
    'homology corpus:genus3 --field 2': (0, '7efcc5120d79ed04bdbaf7cc30edcefe535395e179ac749e3d8e00a782254096'),
    'homology corpus:genus3 --quotient core:2:1': (0, '27593cef242694246070b82d9b07e8047829eb3c15d1c199113b40ecaa9a7c3d'),
    'deficiency corpus:genus3': (0, '220ef4c926bc6945b36f12e652ddadc9fe3c22c0bd2eebc2de8a0c06385ba163'),
    'stability corpus:genus3 --max-index 2': (0, '9771590a5fa8ae95b8b3c13a56fb482bd461f25aaaf0b97e984be211a2b181ce'),
    'modp corpus:genus3 -p 2 --normal-index 2': (0, '90844be31aac389442e9123423702d62efd42f56375a6075489b7a6f9dac10a8'),
    'parse corpus:q8': (0, 'b5aa60a27fa11b31a1c8295dcbeaaccd7e59c0f8e68d488b833d4a298c23ce07'),
    'subgroups corpus:q8 --max-index 3': (0, '0812c95d3d5dc8fe433cc38d6d733d15db923c0a6b2c72f12acf5f51eef3584c'),
    'schreier corpus:q8 --index-spec 1-3': (0, '2e34c9e74ad655fd4ab7c3b65a43cc2318ddb4b38464108dc8a1e92043b34739'),
    'homology corpus:q8': (0, '834ec5aa6ab00fdb6def0d8db0b3727b86c9904df77a4526609e7f8d0f263e02'),
    'homology corpus:q8 --field 2': (0, '0668c0e726dc87da53bff436b63daa86ee6c8593bc873eff4134cdac9ebb655d'),
    'homology corpus:q8 --quotient core:2:1': (0, 'cd0558864c4ccc7d21221c2d847d4f814102c00bb7aaa05043c8b58d080d6636'),
    'deficiency corpus:q8': (0, '0cd055044a70abb6b8d555020111c802d78a8f15571e8ee4d97e7bf985b48785'),
    'stability corpus:q8 --max-index 3': (2, '0108b5caec6eabe9b4020337b125c8f9fc8d45be7c705642ddaf187238e9a4b4'),
    'modp corpus:q8 -p 2 --normal-index 2': (0, 'a96350018b85092d5f90eaa7d923b35fe3406da7769c703f31ad5163d77ab5c9'),
    'parse corpus:redundant': (0, '67795e1cd0d4096fb0294ec78cdd4ecf67ee92f8c505a5cd44586d65d7fdc444'),
    'subgroups corpus:redundant --max-index 3': (0, '11be1b946f0d88b3fcdc48ab8b1b5caa5906c3f06611987ca2a961e3d7a52ebf'),
    'schreier corpus:redundant --index-spec 1-3': (0, '3a3a08fc05ecb0d4a66d3f5ac796b9c92adc3c14cc1d637a9fc44b22f4658bed'),
    'homology corpus:redundant': (0, '21e4a15a19622588b39daf90952bc08495eb5d64c6e487c382c9694ad054448e'),
    'homology corpus:redundant --field 2': (0, 'fec332869bb38c7d376c3c6c1d4bfc5a96266bd82eeec328932ec35aeba675d2'),
    'homology corpus:redundant --quotient core:2:1': (0, '379ee1e2d3a601408793e00835120ad6f31111e44ef777d6c573a483d6c0a0d6'),
    'deficiency corpus:redundant': (0, '1227c2e472261c99e1aff73a714413493a6fe7d03551a907286ba39f5839b0e1'),
    'stability corpus:redundant --max-index 3': (0, '692254d26f028331c104744c819136ca799e86e07837bf87ba4122c2e350ef58'),
    'modp corpus:redundant -p 2 --normal-index 2': (0, '29238aa13f58ade954ece53f4216708358172d208c721acc327c544d4f190601'),
    'parse corpus:torus': (0, 'ddc1b566e731076b52f449689d29bacce700ba4ea29aab4c504d19fdd89f4aa3'),
    'subgroups corpus:torus --max-index 3': (0, '3f329ead726d44008d5dfc2e463e9cead50bdd17a17616560ce990b8bc334356'),
    'schreier corpus:torus --index-spec 1-3': (0, '96b540a8e619a763908ec0e8ba8f1c046a9d996e563198beef6eea67f15703e5'),
    'homology corpus:torus': (0, 'a5f1c23d60494e8ead460d58c0a0de9ec621b9d02432be3e9128451ad033001e'),
    'homology corpus:torus --field 2': (0, '7a9ecf3d9c5805e73fac39a446be627a38c954d2d08dcf89a4739cc326834f51'),
    'homology corpus:torus --quotient core:2:1': (0, 'd449677db3f8faacfbe8b29e04b3c22ae09fb8486f4ec61b0f0107c9c08ac08c'),
    'deficiency corpus:torus': (0, '22049c9405a9f65d56b62fc3cb0029fc9a236c0a333d3a3925144eecca86c58d'),
    'stability corpus:torus --max-index 3': (0, 'd0b5bd80cc3a4ffe5cecbfbb63b871a3756ea085104a4e58c412da718d9bc234'),
    'modp corpus:torus -p 2 --normal-index 2': (0, 'f35b372ec04d5059d3dc6a5394512a4d31dfa2a34e77d36ad85d6be2aa426b5d'),
    'parse corpus:trefoil': (0, '5149c442df77d4d9db26d8ca6a1892cbc7b89e65c39e24685cb00baa0f8cf4bf'),
    'subgroups corpus:trefoil --max-index 3': (0, 'd32575ea0580784d3d25cc9bb3c84c23570c48945389c39468b8cbd139e3d540'),
    'schreier corpus:trefoil --index-spec 1-3': (0, '9a441faa5cafbf476f56e05d686c173abb680994a910efb25b2f9fc858ce0a86'),
    'homology corpus:trefoil': (0, '309648fb0d1ca7e64f077e4f2919a14335722ec0c4475cbc7f95903fce54a0df'),
    'homology corpus:trefoil --field 2': (0, '3a17d9a7fd26892552249d873c53b7192b243fbfba4f01ed8f490f18d811d48d'),
    'homology corpus:trefoil --quotient core:2:1': (0, '2236f213710ccbce0c9524435b70efbb1ea08988f297139e837155c85405ab9d'),
    'deficiency corpus:trefoil': (0, '22049c9405a9f65d56b62fc3cb0029fc9a236c0a333d3a3925144eecca86c58d'),
    'stability corpus:trefoil --max-index 3': (0, '5f8b269bb54fd2fe7bdfc848f0d0b73839945fed33ff9adbb70c6f316c7a607d'),
    'modp corpus:trefoil -p 2 --normal-index 2': (0, 'ed5122ba87e241f0ff18ff868759bef983bc136c75d71e06cb7bf1fa2ad832b8'),
    'cert corpus:dup_relator --witness w_a': (0, '802c8a5938ae1a0ddd686261de0de308d6de938e54edcb95b61a74f4a53cb8fe'),
    'cert corpus:dup_relator --witness w_ab': (0, '6919e35ba955484c13bbdc9f50e1caba106fbeef45b6fad6a7c7b2ae2dd29396'),
    'stability corpus:genus2 --max-index 4': (0, '0971df124246a7b08ed684c652c7aa4d91553283a13eebc3d9c48471083790b5'),
    'stability corpus:redundant --max-index 4': (0, 'c387181634ae5e631ff07e022b83d494f08f7b773f294e65526821b4f7782c82'),
    'subgroups corpus:genus2 --max-index 4': (0, '0c2b30da41a1e44f37afaf6665a51aac139e1a3348feebb4ebdc2e7469df1028'),
    'subgroups corpus:free2 --max-index 5': (0, '0ca326f0b9da6cab912a24e3faebe6bdc473ead9e88fa378ba38beba4556c5ad'),
    'modp corpus:free2 -p 2 --normal-index 4': (0, '679a872893cebeac73bd87fc975b6b04bb77f6104884364b7e6d09635b1efb7c'),
    'modp corpus:torus -p 2 --normal-index 4': (0, '1e1a6fdbb400f3d52e9917c22f4cdb7f7adc88260668634c1077e12e8f4f2c9a'),
    'modp corpus:dup_relator -p 2 --normal-index 4': (0, '802355e5299e9669e9c966302392f26288d39adeca0bc56326a260dab521c16f'),
    'modp corpus:d4 -p 2 --normal-index 4': (0, '8ebd9c778079d5035d28f004ea6eda268fcc1c79496a1bb41b534bdcc86b29e1'),
    'modp corpus:q8 -p 2 --normal-index 4': (0, '8ebd9c778079d5035d28f004ea6eda268fcc1c79496a1bb41b534bdcc86b29e1'),
}


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(case_keys())


@pytest.mark.parametrize("key", case_keys())
def test_cli_report_digest(key, tmp_path):
    assert run_case(key, tmp_path) == GOLDEN[key]


@pytest.mark.parametrize(
    "key",
    [
        "stability corpus:redundant --max-index 4",  # open rows: Schreier rewrite and Tietze
        "modp corpus:q8 -p 2 --normal-index 4",  # the bar oracle's cross-checks
        "homology corpus:d4 --quotient core:2:1",  # Smith form verify and d o d = 0
    ],
)
def test_report_digest_under_python_O(key):
    """python -O strips assert statements; the reports must not change."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "deflab.cli", *key.split()], capture_output=True, env=env
    )
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == GOLDEN[key]
